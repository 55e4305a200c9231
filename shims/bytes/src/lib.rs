//! Minimal workspace-local implementation of the `bytes` crate API
//! surface this repository uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the handful of behaviours it needs: [`Bytes`] is a cheaply
//! cloneable (refcounted), sliceable, immutable byte buffer. Clones
//! and sub-slices share one allocation, which is what makes the blob
//! decode path of `tc-mps` zero-copy — and, as in the real crate,
//! `Bytes::from(Vec<u8>)` and [`Bytes::from_owner`] *adopt* the
//! caller's allocation instead of copying it, so a payload built once
//! travels from its producer to every consumer without a memcpy.

use std::any::Any;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    /// First byte of the view; dangling-but-aligned when `len == 0`.
    ptr: *const u8,
    len: usize,
    /// Keeps the viewed allocation alive. `None` for views of static
    /// memory (which includes every empty view), so those never touch
    /// a refcount or the allocator.
    _owner: Option<Arc<dyn Any + Send + Sync>>,
}

// SAFETY: `ptr..ptr+len` is immutable for the lifetime of the view —
// it points into `'static` memory or into the allocation `_owner`
// keeps alive, which nobody can reach mutably once it is inside the
// `Arc` — so sharing or moving the view across threads only ever
// shares read-only bytes; `_owner` itself is `Send + Sync`.
unsafe impl Send for Bytes {}
unsafe impl Sync for Bytes {}

/// Makes any `Send` owner shareable: after construction the owner is
/// never accessed through a reference again, only dropped (by
/// whichever thread releases the last clone, which `T: Send` allows).
struct Owner<T>(T);

// SAFETY: no `&T` is ever handed out or used after `from_owner`
// returns (the field is private and only dropped), so there is no
// shared access for `Sync` to guard.
unsafe impl<T: Send> Sync for Owner<T> {}

impl Bytes {
    /// Creates an empty `Bytes`. Allocation-free (empty buffers are
    /// used as placeholders on hot paths).
    pub const fn new() -> Self {
        Self::from_static(&[])
    }

    /// Creates `Bytes` viewing a static byte slice (no copy).
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Self { ptr: bytes.as_ptr(), len: bytes.len(), _owner: None }
    }

    /// Creates `Bytes` that views `owner`'s bytes in place and drops
    /// `owner` when the last clone or slice goes away. The one
    /// allocation made is the refcount cell; the payload is not
    /// copied.
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + 'static,
    {
        // Box first, view second: an owner that stores its bytes
        // inline (an array, say) only has its final address now.
        let owner = Arc::new(Owner(owner));
        let view: &[u8] = owner.0.as_ref();
        let (ptr, len) = (view.as_ptr(), view.len());
        Self { ptr, len, _owner: Some(owner) }
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pointer to the first byte of the view.
    pub fn as_ptr(&self) -> *const u8 {
        self.ptr
    }

    /// Returns a sub-view sharing the same backing allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice {lo}..{hi} out of bounds of {len}");
        // SAFETY: `lo <= len` was just asserted, so the offset stays
        // inside (or one past the end of) the viewed allocation.
        let ptr = unsafe { self.ptr.add(lo) };
        Self { ptr, len: hi - lo, _owner: self._owner.clone() }
    }

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr..ptr+len` is initialized, immutable memory that
        // outlives `self` (static, or kept alive by `_owner`); every
        // constructor derives both from one `&[u8]`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Copies the view into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopts the vector's allocation (no copy); an empty vector needs
    /// no owner at all.
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            Self::new()
        } else {
            Self::from_owner(v)
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::from(v.to_vec())
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_slice_share_backing() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(1..).as_slice(), &[3, 4]);
        assert_eq!(b.as_ptr() as usize + 1, s.as_ptr() as usize);
    }

    #[test]
    fn empty_and_clone() {
        let e = Bytes::new();
        assert!(e.is_empty());
        let b = Bytes::from(vec![9u8]);
        let c = b.clone();
        assert_eq!(b, c);
    }

    #[test]
    fn from_vec_adopts_the_allocation() {
        let v = vec![7u8; 4096];
        let original = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), original, "Bytes::from(Vec) must not copy");
        let c = b.clone();
        let s = b.slice(100..200);
        assert_eq!(c.as_ptr(), original);
        assert_eq!(s.as_ptr() as usize, original as usize + 100);
        // The allocation outlives the handle it was adopted through.
        drop(b);
        drop(c);
        assert_eq!(&s[..], &[7u8; 100]);
    }

    #[test]
    fn from_owner_views_typed_storage_in_place() {
        struct Words(Vec<u64>);
        impl AsRef<[u8]> for Words {
            fn as_ref(&self) -> &[u8] {
                // SAFETY: u64 has no padding; the length is in bytes.
                unsafe { std::slice::from_raw_parts(self.0.as_ptr().cast(), self.0.len() * 8) }
            }
        }
        let words = Words(vec![0x0102_0304_0506_0708; 3]);
        let original = words.0.as_ptr().cast::<u8>();
        let b = Bytes::from_owner(words);
        assert_eq!(b.len(), 24);
        assert_eq!(b.as_ptr(), original);
        assert_eq!(b.as_ptr().align_offset(8), 0, "typed storage keeps its alignment");
        // An owner that stores its bytes inline is viewed where it
        // finally lives, not where it was before the move.
        let inline = Bytes::from_owner([1u8, 2, 3]);
        assert_eq!(inline.clone().as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn owner_is_dropped_with_the_last_view() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static DROPPED: AtomicBool = AtomicBool::new(false);
        struct Flagged(Vec<u8>);
        impl AsRef<[u8]> for Flagged {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        impl Drop for Flagged {
            fn drop(&mut self) {
                DROPPED.store(true, Ordering::SeqCst);
            }
        }
        let b = Bytes::from_owner(Flagged(vec![1, 2, 3, 4]));
        let tail = b.slice(2..);
        drop(b);
        assert!(!DROPPED.load(Ordering::SeqCst), "a live slice must keep the owner");
        assert_eq!(&tail[..], &[3, 4]);
        drop(tail);
        assert!(DROPPED.load(Ordering::SeqCst));
    }

    #[test]
    fn empty_views_need_no_owner() {
        for e in [Bytes::new(), Bytes::from(Vec::new()), Bytes::from_static(b""), Bytes::default()]
        {
            assert!(e.is_empty());
            assert!(e._owner.is_none());
            assert_eq!(e.as_slice(), &[] as &[u8]);
        }
        let s = Bytes::from_static(b"static");
        assert!(s._owner.is_none());
        assert_eq!(s.slice(1..3).as_slice(), b"ta");
    }

    #[test]
    fn views_cross_threads() {
        let b = Bytes::from(vec![5u8; 64]);
        let c = b.clone();
        let sum = std::thread::spawn(move || c.iter().map(|&x| x as u32).sum::<u32>());
        assert_eq!(sum.join().expect("reader thread"), 320);
        assert_eq!(b.len(), 64);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1u8, 2]).slice(0..3);
    }
}
