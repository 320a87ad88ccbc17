//! Name interning: a shared arena mapping case-folded names to dense ids.
//!
//! A [`Name`] owns one heap buffer; structures that key maps by `Name`
//! (resolver caches, zone-cut tables) pay that allocation — and the
//! per-label case-folding hash — on every insert *and* every probe. At
//! Internet scale (millions of resolver caches) that is the dominant DNS-
//! side cost. A [`NameArena`] stores each distinct name once and hands out
//! a copyable [`NameId`]; equal names (case-insensitively, like `Name`'s
//! own `Eq`) always receive the same id, so `NameId` equality and hashing
//! replace label-by-label comparison.
//!
//! The arena is append-only and its id space is allocation-ordered:
//! iterating `0..len` visits names in first-intern order, which is
//! deterministic whenever the intern call sequence is — the property every
//! consumer in this workspace already guarantees (seeded RNG, ordered
//! event loop). Nothing here iterates the internal hash index.

use crate::name::Name;
use std::collections::HashMap;

/// Dense handle to a name interned in a [`NameArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(u32);

impl NameId {
    /// The arena slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only name arena. See the module docs.
#[derive(Debug, Default)]
pub struct NameArena {
    names: Vec<Name>,
    /// Canonical (lowercased, dot-terminated) bytes → slot. Probes accept
    /// `&[u8]` so suffix walks can slice one canonical buffer instead of
    /// building a `Name` per ancestor.
    by_canon: HashMap<Vec<u8>, u32>,
}

impl NameArena {
    /// An empty arena.
    pub fn new() -> NameArena {
        NameArena::default()
    }

    /// Intern `name`, returning the existing id if an equal (case-
    /// insensitive) name is already present. The first-interned spelling
    /// is the one [`get`](Self::get) returns.
    pub fn intern(&mut self, name: &Name) -> NameId {
        let canon = name.canonical_bytes();
        if let Some(&id) = self.by_canon.get(&canon) {
            return NameId(id);
        }
        let id = u32::try_from(self.names.len()).expect("arena overflow");
        self.names.push(name.clone());
        self.by_canon.insert(canon, id);
        NameId(id)
    }

    /// The interned name for an id issued by this arena.
    pub fn get(&self, id: NameId) -> &Name {
        &self.names[id.0 as usize]
    }

    /// The id of `name`, if it has been interned.
    pub fn lookup(&self, name: &Name) -> Option<NameId> {
        self.lookup_canonical(&name.canonical_bytes())
    }

    /// The id for pre-computed canonical bytes (as produced by
    /// [`Name::canonical_bytes`]: lowercased labels, each dot-terminated;
    /// the root is `"."`).
    pub fn lookup_canonical(&self, canon: &[u8]) -> Option<NameId> {
        self.by_canon.get(canon).map(|&id| NameId(id))
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn equal_names_share_an_id() {
        let mut a = NameArena::new();
        let id1 = a.intern(&n("Example.ORG"));
        let id2 = a.intern(&n("example.org"));
        assert_eq!(id1, id2);
        assert_eq!(a.len(), 1);
        // First spelling wins.
        assert_eq!(a.get(id1).to_string(), "Example.ORG");
    }

    #[test]
    fn distinct_names_get_dense_sequential_ids() {
        let mut a = NameArena::new();
        let ids: Vec<NameId> = ["a.org", "b.org", "c.org"]
            .iter()
            .map(|s| a.intern(&n(s)))
            .collect();
        assert_eq!(ids.iter().map(|i| i.index()).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn lookup_without_interning() {
        let mut a = NameArena::new();
        assert_eq!(a.lookup(&n("x.org")), None);
        let id = a.intern(&n("x.org"));
        assert_eq!(a.lookup(&n("X.ORG")), Some(id));
        assert_eq!(a.lookup_canonical(b"x.org."), Some(id));
        assert_eq!(a.lookup_canonical(b"y.org."), None);
    }

    #[test]
    fn root_is_internable() {
        let mut a = NameArena::new();
        let id = a.intern(&Name::root());
        assert_eq!(a.lookup_canonical(b"."), Some(id));
        assert!(a.get(id).is_root());
    }
}
