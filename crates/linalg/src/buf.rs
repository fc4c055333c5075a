//! The element buffer under [`DenseMatrix`](crate::DenseMatrix) and
//! [`SparseMatrix`](crate::SparseMatrix): a `Vec`, or a window into a buffer
//! that another matrix owns, reading as one pointer-and-length load either
//! way.
//!
//! Row bands ([`Matrix::row_slice`](crate::Matrix::row_slice)) share their
//! parent's buffers instead of copying them. Telling "my own `Vec`" from "a
//! window of my parent's" with an enum on every read costs more than the
//! branch: `values()` / `row(r)` / `row_cols(r)` are called per row and, for
//! narrow side inputs, per cell, and the second code path made them large
//! enough that the fused kernels stopped inlining them (measured on fusebench
//! `ops_dense`: fig8g 75 → 85 ms, and the CSR panels 3–8 % slower). So a
//! [`Buf`] caches where its readable elements start and how many there are;
//! a read is exactly what a `Vec` deref is, and only construction, the first
//! write and drop look at which kind of buffer it is.

use std::ptr::NonNull;
use std::sync::Arc;

/// What keeps a [`Buf`]'s elements alive.
enum Owner<T, P> {
    /// The elements are this `Vec`'s.
    Vec(Vec<T>),
    /// The elements lie in a buffer that `P` owns, and that stays allocated,
    /// in place and unwritten for as long as this strong reference exists.
    Parent(Arc<P>),
}

/// `len` elements of `T` that are either owned or a window into a buffer
/// owned by a `P` (see the module docs).
pub(crate) struct Buf<T, P> {
    // Invariant: `ptr .. ptr + len` are initialised elements of a buffer that
    // `owner` keeps alive. For `Owner::Vec` they are all of the `Vec`'s
    // elements, `ptr` is its `as_mut_ptr()`, and every access to them goes
    // through `ptr` (the `Vec` is only moved out or dropped), so `&self` /
    // `&mut self` on the `Buf` are the borrows that govern them. For
    // `Owner::Parent` the elements are read-only.
    ptr: NonNull<T>,
    len: usize,
    owner: Owner<T, P>,
}

// SAFETY: `ptr` is a cache of a location inside what `owner` holds, a
// `Vec<T>` or an `Arc<P>`; sending or sharing a `Buf` sends or shares exactly
// those (plus `&[T]` / `&mut [T]` views of the `Vec`'s elements), which is
// sound when `T` and `P` are `Send + Sync`.
unsafe impl<T: Send + Sync, P: Send + Sync> Send for Buf<T, P> {}
// SAFETY: as above; `&Buf` hands out only `&[T]` and `&Arc<P>`.
unsafe impl<T: Send + Sync, P: Send + Sync> Sync for Buf<T, P> {}

impl<T: Copy, P> Buf<T, P> {
    /// Takes ownership of `v`'s elements.
    pub(crate) fn owned(mut v: Vec<T>) -> Self {
        let ptr = NonNull::new(v.as_mut_ptr()).expect("a Vec's pointer is never null");
        Buf { ptr, len: v.len(), owner: Owner::Vec(v) }
    }

    /// A read-only window over `window`, kept alive by `parent`.
    ///
    /// # Safety
    /// `window` must lie in a buffer that stays allocated, in place and
    /// unwritten for as long as a strong reference to `parent` exists.
    pub(crate) unsafe fn window(parent: Arc<P>, window: &[T]) -> Self {
        Buf { ptr: NonNull::from(window).cast(), len: window.len(), owner: Owner::Parent(parent) }
    }

    /// The parent whose buffer this is a window of; `None` for owned elements.
    #[inline]
    pub(crate) fn parent(&self) -> Option<&Arc<P>> {
        match &self.owner {
            Owner::Vec(_) => None,
            Owner::Parent(p) => Some(p),
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        // SAFETY: by the struct invariant `ptr .. ptr + len` are initialised
        // elements of a buffer `owner` keeps alive for at least `&self`.
        // Nothing writes them meanwhile: an owned buffer is written only
        // through `&mut self`, a parent's never while the `Arc` is held.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The elements, mutably. A window first copies itself into a `Vec` of
    /// its own, so a write never reaches the parent.
    #[inline]
    pub(crate) fn make_mut(&mut self) -> &mut [T] {
        if self.parent().is_some() {
            self.unshare();
        }
        // SAFETY: `owner` is now `Owner::Vec`, so `ptr` is that `Vec`'s
        // `as_mut_ptr()` and covers exactly its `len` initialised elements;
        // `&mut self` makes the returned slice the only live reference to them.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    #[cold]
    fn unshare(&mut self) {
        *self = Buf::owned(self.as_slice().to_vec());
    }

    /// Keeps the first `len` elements (copying a window out first).
    pub(crate) fn truncate(&mut self, len: usize) {
        let mut v = std::mem::replace(self, Buf::owned(Vec::new())).into_vec();
        v.truncate(len);
        *self = Buf::owned(v);
    }

    /// The elements as a `Vec`: the owned one, or a copy of a window.
    pub(crate) fn into_vec(self) -> Vec<T> {
        match self.owner {
            Owner::Vec(v) => v,
            Owner::Parent(_) => self.as_slice().to_vec(),
        }
    }

    /// Gives up the elements of a dying value: an owned `Vec` goes to
    /// `shelve`; a window drops its hold on the parent, and if that was the
    /// last hold anywhere the parent itself goes to `last`. So a buffer is
    /// shelved only once nothing can read it any more.
    pub(crate) fn recycle(self, shelve: impl FnOnce(Vec<T>), last: impl FnOnce(P)) {
        match self.owner {
            Owner::Vec(v) => shelve(v),
            Owner::Parent(parent) => {
                if let Some(p) = Arc::into_inner(parent) {
                    last(p);
                }
            }
        }
    }
}

impl<T: Copy, P> Clone for Buf<T, P> {
    /// Owned elements are copied; a window stays a window of the same parent.
    fn clone(&self) -> Self {
        match &self.owner {
            Owner::Vec(_) => Buf::owned(self.as_slice().to_vec()),
            Owner::Parent(p) => {
                Buf { ptr: self.ptr, len: self.len, owner: Owner::Parent(Arc::clone(p)) }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Holder(Vec<f64>);

    fn window_of(parent: &Arc<Holder>, lo: usize, hi: usize) -> Buf<f64, Holder> {
        // SAFETY: `Holder` never exposes its `Vec` mutably, so the buffer
        // stays in place and unwritten while the `Arc` clone lives.
        unsafe { Buf::window(Arc::clone(parent), &parent.0[lo..hi]) }
    }

    #[test]
    fn owned_buffers_read_write_and_round_trip() {
        let mut b: Buf<f64, Holder> = Buf::owned(vec![1.0, 2.0, 3.0]);
        assert!(b.parent().is_none());
        b.make_mut()[1] = 20.0;
        assert_eq!(b.as_slice(), &[1.0, 20.0, 3.0]);
        let c = b.clone();
        b.truncate(2);
        assert_eq!(b.as_slice(), &[1.0, 20.0]);
        assert_eq!(c.into_vec(), vec![1.0, 20.0, 3.0]);
        assert_eq!(b.into_vec(), vec![1.0, 20.0]);
        let empty: Buf<f64, Holder> = Buf::owned(Vec::new());
        assert!(empty.as_slice().is_empty());
    }

    #[test]
    fn windows_read_in_place_and_copy_on_write() {
        let parent = Arc::new(Holder(vec![0.0, 1.0, 2.0, 3.0, 4.0]));
        let mut w = window_of(&parent, 1, 4);
        assert_eq!(w.as_slice().as_ptr(), parent.0[1..].as_ptr(), "reads the parent's memory");
        let kept = w.clone();
        assert_eq!(Arc::strong_count(&parent), 3, "each window holds the parent");
        w.make_mut()[0] = -1.0;
        assert_eq!(w.as_slice(), &[-1.0, 2.0, 3.0]);
        assert!(w.parent().is_none(), "the first write unshares");
        assert_eq!(Arc::strong_count(&parent), 2);
        assert_eq!(parent.0, vec![0.0, 1.0, 2.0, 3.0, 4.0], "and never reaches the parent");
        assert_eq!(kept.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(kept.into_vec(), vec![1.0, 2.0, 3.0]);
        drop(w);
        // Recycling a window shelves nothing; the last hold hands the parent on.
        let (a, b) = (window_of(&parent, 0, 0), window_of(&parent, 2, 5));
        drop(parent);
        a.recycle(|_| panic!("a window owns no Vec"), |_| panic!("`b` still holds the parent"));
        let mut last = None;
        b.recycle(|_| panic!("a window owns no Vec"), |p| last = Some(p.0));
        assert_eq!(last, Some(vec![0.0, 1.0, 2.0, 3.0, 4.0]));
    }
}
