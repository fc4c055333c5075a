//! A scoped thread-local stack: the one RAII push/pop-with-LIFO-check
//! mechanism for "install a handle around this region" patterns (the
//! buffer-pool scope). Callers own the `thread_local!` storage and pass its
//! `LocalKey`; this module owns the guard discipline so the semantics can
//! never drift between copies.

use std::cell::RefCell;
use std::thread::LocalKey;

/// The thread-local storage a scoped stack lives in.
pub type Stack<T> = RefCell<Vec<T>>;

/// RAII guard returned by [`push`]; removes the pushed entry on drop.
/// Guards must drop in LIFO order (the natural lexical-scope usage);
/// out-of-order drops would leave the wrong handle installed and are caught
/// by a debug assertion.
pub struct Guard<T: 'static> {
    key: &'static LocalKey<Stack<T>>,
    /// Stack depth right after this entry was pushed (LIFO check).
    depth: usize,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Pushes `value` onto the thread's stack until the returned guard drops.
pub fn push<T: 'static>(key: &'static LocalKey<Stack<T>>, value: T) -> Guard<T> {
    let depth = key.with(|c| {
        let mut st = c.borrow_mut();
        st.push(value);
        st.len()
    });
    Guard { key, depth, _not_send: std::marker::PhantomData }
}

/// The innermost entry on the thread's stack, if any.
pub fn top<T: 'static + Clone>(key: &'static LocalKey<Stack<T>>) -> Option<T> {
    key.with(|c| c.borrow().last().cloned())
}

impl<T: 'static> Drop for Guard<T> {
    fn drop(&mut self) {
        self.key.with(|c| {
            let mut st = c.borrow_mut();
            debug_assert_eq!(
                st.len(),
                self.depth,
                "scopes must drop in LIFO order (a later scope is still alive)"
            );
            st.pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static STACK: Stack<u32> = const { RefCell::new(Vec::new()) };
    }

    #[test]
    fn push_top_pop_nest() {
        assert_eq!(top(&STACK), None);
        let a = push(&STACK, 1);
        assert_eq!(top(&STACK), Some(1));
        {
            let _b = push(&STACK, 2);
            assert_eq!(top(&STACK), Some(2), "innermost wins");
        }
        assert_eq!(top(&STACK), Some(1));
        drop(a);
        assert_eq!(top(&STACK), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "LIFO order")]
    fn out_of_order_drop_is_caught() {
        let a = push(&STACK, 1);
        let _b = push(&STACK, 2);
        drop(a); // drops out of order: the debug assertion must fire
    }
}
