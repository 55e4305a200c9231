//! Golden bytes of the presets: CRC32c of the `.bin` image
//! `tricount generate` writes, recorded before the generators were
//! split across cores. The draw, the canonical form and the writer may
//! change how they work, never what they produce; a moved byte fails
//! here rather than in the fingerprints several layers downstream.

use tc_gen::Preset;
use tc_graph::io::{write_binary_edges, Crc32c};

const GOLDEN: [(&str, u64, u32); 6] = [
    ("g500-s10", 1, 0x437f_d122),
    ("g500-s10", 42, 0x2cc9_cfd6),
    ("friendster-like-10", 1, 0xb68f_2197),
    ("friendster-like-10", 42, 0xc120_1dfe),
    ("twitter-like-8", 1, 0xc754_f6c6),
    ("twitter-like-8", 42, 0x4663_f241),
];

fn crc_of(name: &str, seed: u64) -> u32 {
    let el = Preset::parse(name).expect("known preset").build(seed);
    let mut image = Vec::new();
    write_binary_edges(&el, &mut image).expect("write to memory");
    let mut crc = Crc32c::new();
    crc.update(&image);
    crc.finish()
}

#[test]
fn generated_bytes_match_the_recorded_crcs() {
    let got: Vec<(&str, u64, u32)> =
        GOLDEN.iter().map(|&(name, seed, _)| (name, seed, crc_of(name, seed))).collect();
    let table: String = got
        .iter()
        .map(|(name, seed, crc)| format!("    ({name:?}, {seed}, {crc:#010x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "generated bytes moved; actual table:\n{table}");
}
