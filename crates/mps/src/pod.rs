//! Plain-old-data byte views.
//!
//! The message-passing layer moves raw bytes; this module provides the
//! safe bridge between typed slices (`&[u32]`, `&[u64]`, …) and byte
//! buffers. Only types for which *every* bit pattern is a valid value
//! may implement [`Pod`], which is what makes the reinterpreting casts
//! below sound.

use bytes::Bytes;

/// Marker for plain-old-data types.
///
/// # Safety
///
/// Implementors must guarantee that:
/// - every bit pattern of `size_of::<Self>()` bytes is a valid value,
/// - the type has no padding bytes,
/// - the type has no interior mutability and no drop glue.
pub unsafe trait Pod: Copy + Send + 'static {}

macro_rules! impl_pod {
    ($($t:ty),* $(,)?) => {
        $(unsafe impl Pod for $t {})*
    };
}

impl_pod!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// Views a typed slice as raw bytes (zero-copy).
pub fn bytes_of<T: Pod>(data: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` has no padding, so every byte of the slice is
    // initialized; the length arithmetic cannot overflow because the
    // slice already exists in memory.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// Moves a typed vector into a message buffer without copying it: the
/// returned [`Bytes`] views the vector's own storage (and keeps its
/// alignment, so the receiver's [`PodArray`] is zero-copy too).
pub fn bytes_from_vec<T: Pod>(data: Vec<T>) -> Bytes {
    struct Typed<T>(Vec<T>);
    impl<T: Pod> AsRef<[u8]> for Typed<T> {
        fn as_ref(&self) -> &[u8] {
            bytes_of(&self.0)
        }
    }
    if data.is_empty() {
        Bytes::new()
    } else {
        Bytes::from_owner(Typed(data))
    }
}

/// Copies a byte buffer into a freshly allocated typed vector.
///
/// Works for arbitrarily aligned input (uses unaligned reads).
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of `size_of::<T>()`.
pub fn vec_from_bytes<T: Pod>(bytes: &[u8]) -> Vec<T> {
    let sz = std::mem::size_of::<T>();
    assert!(
        sz == 0 || bytes.len() % sz == 0,
        "byte length {} is not a multiple of element size {}",
        bytes.len(),
        sz
    );
    if sz == 0 {
        return Vec::new();
    }
    let n = bytes.len() / sz;
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: the source holds `n * sz` initialized bytes and `T: Pod`
    // accepts any bit pattern; copy_to is byte-wise and honours the
    // destination's alignment. set_len is valid because exactly `n`
    // elements were written.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), n * sz);
        out.set_len(n);
    }
    out
}

/// A typed view over a received byte buffer.
///
/// When the underlying buffer happens to be properly aligned for `T`
/// (the common case: allocators return ≥ 8-byte aligned memory and the
/// blob writer pads sections to 8 bytes) the view is zero-copy;
/// otherwise the data is materialized once on construction.
pub struct PodArray<T: Pod> {
    /// Keeps the zero-copy backing alive; unused in the copied case.
    _backing: Option<Bytes>,
    copied: Option<Vec<T>>,
    ptr: *const T,
    len: usize,
}

// SAFETY: PodArray owns (or co-owns, via Bytes) the pointed-to memory
// and exposes it read-only; T: Pod is Send.
unsafe impl<T: Pod> Send for PodArray<T> {}
unsafe impl<T: Pod> Sync for PodArray<T> {}

impl<T: Pod> PodArray<T> {
    /// Wraps `bytes` as a typed array, copying only if misaligned.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length is not a multiple of `size_of::<T>()`.
    pub fn new(bytes: Bytes) -> Self {
        let sz = std::mem::size_of::<T>();
        assert!(
            sz > 0 && bytes.len() % sz == 0,
            "byte length {} is not a multiple of element size {}",
            bytes.len(),
            sz
        );
        let len = bytes.len() / sz;
        if bytes.as_ptr().align_offset(std::mem::align_of::<T>()) == 0 {
            let ptr = bytes.as_ptr().cast::<T>();
            Self { _backing: Some(bytes), copied: None, ptr, len }
        } else {
            let copied = vec_from_bytes::<T>(&bytes);
            let ptr = copied.as_ptr();
            Self { _backing: None, copied: Some(copied), ptr, len }
        }
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr/len describe either the aligned Bytes buffer or
        // the owned copy, both alive as long as self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Converts into an owned vector (free if the data was already copied).
    pub fn into_vec(mut self) -> Vec<T> {
        match self.copied.take() {
            Some(v) => v,
            None => self.as_slice().to_vec(),
        }
    }
}

impl<T: Pod> std::ops::Deref for PodArray<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for PodArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_u32() {
        let v: Vec<u32> = vec![1, 2, 3, 0xdead_beef];
        let b = bytes_of(&v);
        assert_eq!(b.len(), 16);
        let back: Vec<u32> = vec_from_bytes(b);
        assert_eq!(back, v);
    }

    #[test]
    fn bytes_roundtrip_u64() {
        let v: Vec<u64> = vec![u64::MAX, 0, 42];
        assert_eq!(vec_from_bytes::<u64>(bytes_of(&v)), v);
    }

    #[test]
    fn bytes_roundtrip_f64() {
        let v: Vec<f64> = vec![1.5, -0.25, f64::INFINITY];
        assert_eq!(vec_from_bytes::<f64>(bytes_of(&v)), v);
    }

    #[test]
    fn empty_roundtrip() {
        let v: Vec<u32> = Vec::new();
        assert!(vec_from_bytes::<u32>(bytes_of(&v)).is_empty());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_length_panics() {
        let b = [1u8, 2, 3];
        let _ = vec_from_bytes::<u32>(&b);
    }

    #[test]
    fn pod_array_aligned_is_zero_copy() {
        let v: Vec<u64> = (0..100).collect();
        let bytes = Bytes::from(bytes_of(&v).to_vec());
        let arr = PodArray::<u64>::new(bytes);
        assert_eq!(arr.as_slice(), v.as_slice());
        assert_eq!(arr.len(), 100);
    }

    #[test]
    fn pod_array_over_adopted_vectors_is_zero_copy() {
        // A byte vector handed to `Bytes::from` keeps its allocation,
        // and allocations of this size are at least 8-aligned.
        let raw = bytes_of(&(0..100).collect::<Vec<u64>>()).to_vec();
        let original = raw.as_ptr();
        let arr = PodArray::<u64>::new(Bytes::from(raw));
        assert_eq!(arr.as_slice().as_ptr().cast::<u8>(), original);
        assert_eq!(arr.as_slice()[99], 99);

        // A typed vector moves into the message buffer in place.
        let pairs: Vec<[u32; 2]> = (0..50).map(|i| [i, i + 1]).collect();
        let original = pairs.as_ptr();
        let arr = PodArray::<[u32; 2]>::new(bytes_from_vec(pairs));
        assert_eq!(arr.as_slice().as_ptr(), original);
        assert_eq!(arr.as_slice()[49], [49, 50]);
        assert!(bytes_from_vec(Vec::<u32>::new()).is_empty());
    }

    #[test]
    fn pod_array_misaligned_copies() {
        let v: Vec<u32> = (0..16).collect();
        let mut raw = vec![0u8];
        raw.extend_from_slice(bytes_of(&v));
        let bytes = Bytes::from(raw).slice(1..);
        let arr = PodArray::<u32>::new(bytes);
        assert_eq!(arr.as_slice(), v.as_slice());
    }

    #[test]
    fn pod_array_into_vec() {
        let v: Vec<u32> = vec![9, 8, 7];
        let arr = PodArray::<u32>::new(Bytes::from(bytes_of(&v).to_vec()));
        assert_eq!(arr.into_vec(), v);
    }

    #[test]
    fn array_pod_roundtrip() {
        let v: Vec<[u32; 2]> = vec![[1, 2], [3, 4]];
        assert_eq!(vec_from_bytes::<[u32; 2]>(bytes_of(&v)), v);
    }
}
