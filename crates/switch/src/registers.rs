//! Per-stage register arrays and the three register actions of §6.3.
//!
//! A Tofino pipeline stage owns an array of 32-bit registers and can perform
//! one atomic read-modify-write per packet. SwitchFS defines three register
//! actions used by the dirty set (Fig. 10):
//!
//! * **register query** — compare the register with the tag;
//! * **conditional insert** — report whether the register equals zero or the
//!   tag, writing the tag if the register was zero;
//! * **conditional remove** — clear the register if it equals the tag.

/// Registers a host page holds: 4 KiB of host memory.
const PAGE: usize = 1024;

/// One pipeline stage: an array of 32-bit registers indexed by the dirty-set
/// index field.
///
/// The stage has every register it is given (2^17 in the paper's switch),
/// so the dirty set's capacity and associativity are the paper's. The host
/// keeps the registers in pages of 1,024 (4 KiB), each allocated on the
/// first write into it; an untouched page reads as all zeros. Few
/// directories are scattered at once, so a simulated switch costs the host
/// memory for the registers it has written, not for its whole SRAM.
#[derive(Debug, Clone)]
pub struct RegisterStage {
    pages: Vec<Option<Box<[u32; PAGE]>>>,
    size: usize,
    occupied: usize,
}

impl RegisterStage {
    /// Creates a stage with `size` registers, all empty (zero).
    pub fn new(size: usize) -> Self {
        RegisterStage {
            pages: vec![None; size.div_ceil(PAGE)],
            size,
            occupied: 0,
        }
    }

    /// Number of registers in the stage.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of non-empty registers.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// The page holding `index`, and `index`'s slot in it.
    fn locate(&self, index: usize) -> (usize, usize) {
        assert!(
            index < self.size,
            "register {index} out of range for a stage of {}",
            self.size
        );
        (index / PAGE, index % PAGE)
    }

    /// Raw read of a register (used by tests).
    pub fn read(&self, index: usize) -> u32 {
        let (page, slot) = self.locate(index);
        self.pages[page].as_ref().map_or(0, |p| p[slot])
    }

    /// *Register query*: true if the register at `index` holds `tag`.
    pub fn query(&self, index: usize, tag: u32) -> bool {
        self.read(index) == tag
    }

    /// *Conditional insert*: returns true if the register is empty or
    /// already holds `tag`; writes `tag` when the register was empty. 0 is
    /// the empty register, not a tag: inserting it answers false, writes
    /// nothing and allocates nothing, as removing it does.
    pub fn conditional_insert(&mut self, index: usize, tag: u32) -> bool {
        let (page, slot) = self.locate(index);
        if tag == 0 {
            return false;
        }
        let reg = &mut self.pages[page].get_or_insert_with(|| Box::new([0; PAGE]))[slot];
        if *reg == 0 {
            *reg = tag;
            self.occupied += 1;
            true
        } else {
            *reg == tag
        }
    }

    /// *Conditional remove*: clears the register if it holds `tag`; returns
    /// true if a value was cleared. Allocates nothing: a non-zero tag can
    /// only match a register that was written.
    pub fn conditional_remove(&mut self, index: usize, tag: u32) -> bool {
        let (page, slot) = self.locate(index);
        let Some(reg) = self.pages[page].as_mut().map(|p| &mut p[slot]) else {
            return false;
        };
        if *reg == tag && tag != 0 {
            *reg = 0;
            self.occupied -= 1;
            true
        } else {
            false
        }
    }

    /// Clears every register (switch reboot, §5.4.2), freeing every page.
    pub fn clear(&mut self) {
        self.pages.fill_with(|| None);
        self.occupied = 0;
    }

    /// Pages the host has allocated.
    #[cfg(test)]
    fn pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditional_insert_fills_empty_register() {
        let mut s = RegisterStage::new(8);
        assert!(s.conditional_insert(3, 0xab));
        assert_eq!(s.read(3), 0xab);
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn conditional_insert_is_idempotent_for_same_tag() {
        let mut s = RegisterStage::new(8);
        assert!(s.conditional_insert(3, 0xab));
        assert!(s.conditional_insert(3, 0xab));
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn conditional_insert_rejects_occupied_register() {
        let mut s = RegisterStage::new(8);
        assert!(s.conditional_insert(3, 0xab));
        assert!(!s.conditional_insert(3, 0xcd));
        assert_eq!(s.read(3), 0xab);
    }

    #[test]
    fn conditional_remove_only_matching_tag() {
        let mut s = RegisterStage::new(8);
        s.conditional_insert(2, 0x11);
        assert!(!s.conditional_remove(2, 0x22));
        assert_eq!(s.read(2), 0x11);
        assert!(s.conditional_remove(2, 0x11));
        assert_eq!(s.read(2), 0);
        assert_eq!(s.occupied(), 0);
        // Removing from an empty register is a no-op.
        assert!(!s.conditional_remove(2, 0x11));
    }

    #[test]
    fn query_matches_exact_tag() {
        let mut s = RegisterStage::new(4);
        s.conditional_insert(1, 5);
        assert!(s.query(1, 5));
        assert!(!s.query(1, 6));
        assert!(!s.query(0, 5));
    }

    /// The registers as one flat array: the stage before it was paged.
    struct Flat {
        regs: Vec<u32>,
        occupied: usize,
    }

    impl Flat {
        fn conditional_insert(&mut self, index: usize, tag: u32) -> bool {
            let reg = &mut self.regs[index];
            if tag == 0 {
                false
            } else if *reg == 0 {
                *reg = tag;
                self.occupied += 1;
                true
            } else {
                *reg == tag
            }
        }

        fn conditional_remove(&mut self, index: usize, tag: u32) -> bool {
            let reg = &mut self.regs[index];
            if *reg == tag && tag != 0 {
                *reg = 0;
                self.occupied -= 1;
                true
            } else {
                false
            }
        }
    }

    /// splitmix64: a seeded sequence with no dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Runs a seeded sequence of every register action on a paged stage and
    /// on a flat array of `size` registers, comparing each answer. Indices
    /// come from `indices`, tags from a pool of four that includes 0.
    fn agrees_with_flat(size: usize, indices: &[usize], seed: u64) {
        let mut paged = RegisterStage::new(size);
        let mut flat = Flat {
            regs: vec![0; size],
            occupied: 0,
        };
        let tags = [0, 1, 0xab, u32::MAX];
        let mut rng = seed;
        for step in 0..4_000 {
            let r = next(&mut rng);
            let index = indices[(r >> 8) as usize % indices.len()];
            let tag = tags[(r >> 40) as usize % tags.len()];
            match r % 4 {
                0 => assert_eq!(paged.read(index), flat.regs[index], "read, step {step}"),
                1 => assert_eq!(
                    paged.query(index, tag),
                    flat.regs[index] == tag,
                    "query, step {step}"
                ),
                2 => assert_eq!(
                    paged.conditional_insert(index, tag),
                    flat.conditional_insert(index, tag),
                    "insert, step {step}"
                ),
                _ => assert_eq!(
                    paged.conditional_remove(index, tag),
                    flat.conditional_remove(index, tag),
                    "remove, step {step}"
                ),
            }
            assert_eq!(paged.occupied(), flat.occupied, "occupied, step {step}");
        }
        for (index, reg) in flat.regs.iter().enumerate() {
            assert_eq!(paged.read(index), *reg, "register {index} at the end");
        }
        assert_eq!(paged.size(), size);
    }

    #[test]
    fn a_paged_stage_answers_as_a_flat_array_does() {
        // Both sides of the first and the last page boundary, the two ends.
        let size = 4 * PAGE;
        let edges = [
            0,
            1,
            PAGE - 2,
            PAGE - 1,
            PAGE,
            PAGE + 1,
            3 * PAGE - 1,
            3 * PAGE,
            size - 1,
        ];
        for seed in 1..=4 {
            agrees_with_flat(size, &edges, seed);
        }
        // A stage smaller than one page, the size `DirtySetConfig::tiny(4,
        // 8)` gives each stage.
        let tiny: Vec<usize> = (0..1 << 8).collect();
        for seed in 1..=4 {
            agrees_with_flat(1 << 8, &tiny, seed);
        }
    }

    #[test]
    fn queries_and_removes_on_untouched_pages_allocate_nothing() {
        let mut s = RegisterStage::new(4 * PAGE);
        assert_eq!(s.pages(), 0);
        for index in [0, PAGE - 1, PAGE, 4 * PAGE - 1] {
            assert!(!s.query(index, 0xab));
            assert!(s.query(index, 0));
            assert!(!s.conditional_remove(index, 0xab));
            assert!(!s.conditional_remove(index, 0));
            assert_eq!(s.read(index), 0);
        }
        assert_eq!(s.pages(), 0);
        assert!(s.conditional_insert(PAGE + 5, 0xab));
        assert_eq!(s.pages(), 1, "one write allocates its page alone");
        assert!(!s.conditional_remove(2 * PAGE, 0xab));
        assert_eq!(s.pages(), 1);
    }

    #[test]
    fn a_zero_tag_is_never_inserted() {
        let mut s = RegisterStage::new(4 * PAGE);
        for _ in 0..3 {
            for index in [0, PAGE + 5, 4 * PAGE - 1] {
                assert!(!s.conditional_insert(index, 0));
            }
        }
        assert_eq!(s.occupied(), 0);
        assert_eq!(s.pages(), 0);
        // Nor does it match a register that holds a tag.
        assert!(s.conditional_insert(PAGE + 5, 0xab));
        assert!(!s.conditional_insert(PAGE + 5, 0));
        assert_eq!(s.read(PAGE + 5), 0xab);
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_index_past_the_stage_panics_inside_its_last_page() {
        RegisterStage::new(8).read(8);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = RegisterStage::new(4 * PAGE);
        for index in [0, PAGE, 2 * PAGE + 7, 4 * PAGE - 1] {
            assert!(s.conditional_insert(index, 0xab));
        }
        assert_eq!(s.pages(), 4);
        assert_eq!(s.occupied(), 4);
        s.clear();
        assert_eq!(s.pages(), 0, "a reboot frees every page");
        assert_eq!(s.occupied(), 0);
        assert_eq!(s.read(0), 0);
        assert_eq!(s.read(2 * PAGE + 7), 0);
    }
}
