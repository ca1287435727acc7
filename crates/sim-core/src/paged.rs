//! A vector stored in fixed-size pages.
//!
//! [`PagedVec`] backs registries that grow for the life of a simulation
//! and are indexed by dense ids (locks, cache objects). A plain `Vec`
//! doubles: a registry of 70K entries sits in a 128K-entry allocation
//! whose untouched tail is resident or not depending on where the
//! allocator placed it, so the process footprint varied from seed to
//! seed by megabytes. Pages are filled before the next one is
//! allocated, so at most one page is ever partly used, and growth never
//! copies the entries already stored.

use std::ops::{Index, IndexMut};

/// Log2 of the entries per page.
const PAGE_BITS: u32 = 10;
const PAGE_LEN: usize = 1 << PAGE_BITS;
const PAGE_MASK: usize = PAGE_LEN - 1;

/// An append-only vector stored in pages of 1024 entries.
#[derive(Debug)]
pub struct PagedVec<T> {
    pages: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PagedVec<T> {
    /// An empty vector; allocates nothing until the first push.
    pub const fn new() -> Self {
        PagedVec {
            pages: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `value` at index `len()`.
    pub fn push(&mut self, value: T) {
        if self.len & PAGE_MASK == 0 {
            self.pages.push(Vec::with_capacity(PAGE_LEN));
        }
        let page = self.pages.last_mut().expect("a page was just ensured");
        page.push(value);
        self.len += 1;
    }

    /// The entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flatten()
    }
}

impl<T> Index<usize> for PagedVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.pages[i >> PAGE_BITS][i & PAGE_MASK]
    }
}

impl<T> IndexMut<usize> for PagedVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.pages[i >> PAGE_BITS][i & PAGE_MASK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_across_page_boundaries() {
        let mut v = PagedVec::new();
        assert!(v.is_empty());
        let n = 3 * PAGE_LEN + 7;
        for i in 0..n {
            v.push(i);
        }
        assert_eq!(v.len(), n);
        for i in [0, PAGE_LEN - 1, PAGE_LEN, 2 * PAGE_LEN + 1, n - 1] {
            assert_eq!(v[i], i);
        }
        v[PAGE_LEN] = 0;
        assert_eq!(v[PAGE_LEN], 0);
        assert_eq!(v.iter().count(), n);
        assert!(v.iter().skip(PAGE_LEN + 1).copied().eq(PAGE_LEN + 1..n));
        assert_eq!(v.pages.len(), 4);
        assert!(v.pages.iter().all(|p| p.capacity() == PAGE_LEN));
    }
}
