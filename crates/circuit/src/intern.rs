//! Name interning without a heap object per name.
//!
//! Names live back to back in one arena `String` and are addressed by a
//! [`Span`]. [`NameIndex`] maps names to dense ids through one flat
//! open-addressing table: it stores only `(id, hash)` pairs, and every
//! probe resolves a candidate id back to its name through a closure the
//! owner supplies (the netlist's net arena, its device list, a stage
//! builder's nodes). An insert allocates nothing but the occasional
//! table doubling.

/// Byte range `[start, end)` of a name within its arena.
pub(crate) type Span = (u32, u32);

/// Appends `name` to `arena` and returns where it landed.
pub(crate) fn push_name(arena: &mut String, name: &str) -> Span {
    let start = arena.len() as u32;
    arena.push_str(name);
    (start, arena.len() as u32)
}

/// The name at `span` in `arena`.
pub(crate) fn name_at(arena: &str, span: Span) -> &str {
    &arena[span.0 as usize..span.1 as usize]
}

/// FNV-1a over the ASCII-lowercased bytes, folded to 32 bits. Folding
/// case lets one index answer exact and ASCII-case-insensitive queries
/// alike: every spelling of a name probes the same sequence.
pub(crate) fn name_hash(name: &str) -> u32 {
    let h = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (h ^ (h >> 32)) as u32
}

/// An open-addressing (linear probing) hash index from names to dense
/// ids, kept at most half full.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex {
    /// `(id + 1, hash)` per slot, `id + 1 == 0` marking an empty slot.
    /// The length is zero or a power of two.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl NameIndex {
    /// Home slot of `hash` in a table of `mask + 1` slots.
    fn home(hash: u32, mask: usize) -> usize {
        let h = hash.wrapping_mul(0x9e37_79b9);
        (h ^ (h >> 16)) as usize & mask
    }

    /// The first id along `hash`'s probe sequence for which `matches`
    /// holds.
    pub(crate) fn find(&self, hash: u32, mut matches: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(hash, mask);
        loop {
            let (id1, h) = self.slots[i];
            if id1 == 0 {
                return None;
            }
            if h == hash && matches(id1 as usize - 1) {
                return Some(id1 as usize - 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `id` under `hash` (whether or not an equal name is already
    /// present: callers decide what a duplicate means).
    pub(crate) fn insert(&mut self, hash: u32, id: usize) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = (2 * self.slots.len()).max(16);
            let old = std::mem::replace(&mut self.slots, vec![(0, 0); grown]);
            self.len = 0;
            for (id1, h) in old.into_iter().filter(|s| s.0 != 0) {
                self.insert(h, id1 as usize - 1);
            }
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(hash, mask);
        while self.slots[i].0 != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = (id as u32 + 1, hash);
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_every_name_and_nothing_else() {
        let mut arena = String::new();
        let mut spans = Vec::new();
        let mut index = NameIndex::default();
        for i in 0..1000 {
            let span = push_name(&mut arena, &format!("n{i}"));
            index.insert(name_hash(name_at(&arena, span)), spans.len());
            spans.push(span);
        }
        let find =
            |name: &str| index.find(name_hash(name), |id| name_at(&arena, spans[id]) == name);
        for i in 0..1000 {
            assert_eq!(find(&format!("n{i}")), Some(i));
        }
        assert_eq!(find("n1000"), None);
        assert_eq!(find("N1"), None, "exact lookups are case-sensitive");
        let folded = index.find(name_hash("N1"), |id| {
            name_at(&arena, spans[id]).eq_ignore_ascii_case("N1")
        });
        assert_eq!(folded, Some(1), "every spelling probes the same slots");
    }
}
