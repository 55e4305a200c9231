//! Step 1 of §5.3 on the wire: what a rank sends each cyclic owner in
//! the initial redistribution, and how the owner reads it back.
//!
//! A message is a header — how many of its edges the receiver owns the
//! *first* endpoint of — followed by those edges and then by the edges
//! the receiver owns only the second endpoint of, all as `[u, v]`
//! records in input ids. The two runs are what lets the receiver's
//! loops go without a per-record ownership test: first-endpoint edges
//! are the ones it will orient, second-endpoint edges only feed its
//! degrees and label destinations.
//!
//! A rank whose share of the input is defective sends a *poison*
//! message to every rank instead, carrying the defect's text, so that
//! all ranks leave the exchange with the same verdict.

use crate::recip::Reciprocal;

/// A rank's share of the input as records `(u, v)` it can walk more
/// than once: [`route`] walks it twice, to count and then to fill.
pub(crate) trait Records {
    /// Calls `f` on every record in order, or says what is wrong with
    /// the share (`f` may have seen the records before the defect).
    fn walk(&self, f: impl FnMut(u32, u32)) -> Result<(), String>;
}

/// One message per rank, routing each edge to the cyclic owners of
/// both endpoints: a counting pass, then an in-place fill.
pub(crate) fn route(
    records: &(impl Records + ?Sized),
    by_p: Reciprocal,
) -> Result<Vec<Vec<[u32; 2]>>, String> {
    let owners = |u: u32, v: u32| (by_p.div_rem(u).1 as usize, by_p.div_rem(v).1 as usize);
    let p = by_p.divisor() as usize;
    let (mut firsts, mut seconds) = (vec![0usize; p], vec![0usize; p]);
    records.walk(|u, v| {
        let (du, dv) = owners(u, v);
        firsts[du] += 1;
        seconds[dv] += usize::from(dv != du);
    })?;
    let mut sends: Vec<Vec<[u32; 2]>> =
        (0..p).map(|d| vec![[0; 2]; 1 + firsts[d] + seconds[d]]).collect();
    let mut at: Vec<[usize; 2]> = firsts.iter().map(|&f| [1, 1 + f]).collect();
    for (send, &f) in sends.iter_mut().zip(&firsts) {
        send[0] = [f as u32, (f as u64 >> 32) as u32];
    }
    records.walk(|u, v| {
        let (du, dv) = owners(u, v);
        sends[du][at[du][0]] = [u, v];
        at[du][0] += 1;
        if dv != du {
            sends[dv][at[dv][1]] = [u, v];
            at[dv][1] += 1;
        }
    })?;
    Ok(sends)
}

/// A run of `[u, v]` edge records on the step-1 wire.
pub(crate) type Edges = [[u32; 2]];

/// Header of a step-1 message that carries an input defect in place
/// of edges: a first-endpoint count no message can have.
const POISON: [u32; 2] = [u32::MAX; 2];

/// A step-1 message telling its receiver that the sender's share of
/// the input is defective: the marker, the text's length, the text.
pub(crate) fn poison(msg: &str) -> Vec<[u32; 2]> {
    let word =
        |c: &[u8]| u32::from_le_bytes(std::array::from_fn(|i| c.get(i).copied().unwrap_or(0)));
    let text = msg.as_bytes().chunks(8).map(|c| [word(c), word(c.get(4..).unwrap_or(&[]))]);
    [POISON, [msg.len() as u32, 0]].into_iter().chain(text).collect()
}

/// Splits a step-1 message into the edges this rank owns the first
/// endpoint of and those it owns only the second endpoint of — or
/// yields the text of a [`poison`] message.
pub(crate) fn unpack(msg: &Edges) -> Result<(&Edges, &Edges), String> {
    let (&head, body) = msg.split_first().expect("every step-1 message has a header");
    if head == POISON {
        let bytes: Vec<u8> = body[1..].iter().flatten().flat_map(|w| w.to_le_bytes()).collect();
        return Err(String::from_utf8_lossy(&bytes[..body[0][0] as usize]).into_owned());
    }
    Ok(body.split_at(head[0] as usize | (head[1] as usize) << 32))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Records for [(u32, u32)] {
        fn walk(&self, mut f: impl FnMut(u32, u32)) -> Result<(), String> {
            self.iter().for_each(|&(u, v)| f(u, v));
            Ok(())
        }
    }

    #[test]
    fn every_edge_reaches_both_owners_once() {
        let records = [(0, 1), (0, 4), (1, 2), (2, 6), (3, 7), (5, 6)];
        let sends = route(&records[..], Reciprocal::new(4)).unwrap();
        let mut seen = Vec::new();
        for (owner, msg) in sends.iter().enumerate() {
            let (firsts, seconds) = unpack(msg).expect("edges, not poison");
            assert!(firsts.iter().all(|&[u, _]| u as usize % 4 == owner), "{firsts:?}");
            assert!(seconds.iter().all(|&[u, v]| v as usize % 4 == owner && u % 4 != v % 4));
            seen.extend(firsts.iter().chain(seconds).map(|&[u, v]| (u, v)));
        }
        // (0, 4) and (2, 6) and (3, 7) have one owner for both ends.
        assert_eq!(seen.len(), 2 * records.len() - 3);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, records);
        // No edges at all is still one header per rank.
        assert_eq!(route(&[][..], Reciprocal::new(3)), Ok(vec![vec![[0, 0]]; 3]));
    }

    #[test]
    fn poison_carries_its_text() {
        for text in ["", "1234567", "12345678", "edge 9: self-loop (3, 3) — ünïcode"] {
            assert_eq!(unpack(&poison(text)), Err(text.to_string()));
        }
    }
}
