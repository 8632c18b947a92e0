//! Kogge's pipelined reduction chain \[15\]: lg(s) adders.
//!
//! A classic solution predating FPGAs: a chain of pipelined adders where
//! level j pairs consecutive results of level j−1, so a set of 2ᵗ inputs
//! flows through t adders with no hazards and no stalls. Its two costs are
//! exactly what the paper's circuit eliminates:
//!
//! * it instantiates ⌈lg s⌉ floating-point adders (the most expensive
//!   resource on the fabric) instead of one;
//! * sets whose size is not a power of two must be padded with zeros,
//!   stalling the input stream during the padding cycles.

use super::{ReduceEvent, ReduceInput, Reducer};
use fblas_fpu::PipelinedAdder;
use std::collections::{BTreeMap, VecDeque};

/// A value moving through the chain.
#[derive(Debug, Clone, Copy)]
struct Partial {
    value: f64,
    set_id: u64,
}

/// One level of the chain: a holding register plus a pipelined adder.
#[derive(Debug)]
struct Level {
    held: Option<Partial>,
    adder: PipelinedAdder<u64>,
}

/// Kogge's lg(s)-adder reduction chain, with zero-padding for set sizes
/// that are not powers of two.
#[derive(Debug)]
pub struct KoggeTreeReducer {
    alpha: usize,
    levels: Vec<Level>,
    current_set: Option<u64>,
    current_count: u64,
    /// Zero-pads still owed to square off the just-completed set.
    pads_owed: u64,
    /// Set id the owed pads belong to.
    pad_set: u64,
    /// Padded size of each completed set (final-sum recognition).
    padded_sizes: BTreeMap<u64, u64>,
    out_queue: VecDeque<ReduceEvent>,
    open_sets: usize,
    cycles: u64,
    adds_issued: u64,
    high_water: usize,
}

impl KoggeTreeReducer {
    /// Create the chain for `alpha`-stage adders.
    pub fn new(alpha: usize) -> Self {
        assert!(alpha >= 1);
        Self {
            alpha,
            levels: Vec::new(),
            current_set: None,
            current_count: 0,
            pads_owed: 0,
            pad_set: 0,
            padded_sizes: BTreeMap::new(),
            out_queue: VecDeque::new(),
            open_sets: 0,
            cycles: 0,
            adds_issued: 0,
            high_water: 0,
        }
    }

    /// Advance the whole chain one cycle, feeding `v` (if any) into
    /// level 0 and rippling each level's adder output into the next.
    fn advance(&mut self, v: Option<Partial>) {
        let mut carry = v;
        let mut level = 0;
        loop {
            if level == self.levels.len() {
                if carry.is_none() {
                    break;
                }
                // Grow on demand; a real design sizes the chain to the
                // largest supported set.
                self.levels.push(Level {
                    held: None,
                    adder: PipelinedAdder::with_stages(self.alpha),
                });
            }
            let l = &mut self.levels[level];
            let op = match (l.held.take(), carry.take()) {
                (Some(h), Some(c)) => {
                    assert_eq!(h.set_id, c.set_id, "levels never mix sets");
                    self.adds_issued += 1;
                    Some((h.value, c.value, h.set_id))
                }
                (None, Some(c)) => {
                    l.held = Some(c);
                    None
                }
                (h, None) => {
                    l.held = h;
                    None
                }
            };
            carry = self.levels[level].adder.step(op).map(|t| Partial {
                value: t.value,
                set_id: t.tag,
            });
            // A carry spanning the whole padded set is the final sum. Only
            // completed sets have a recorded size; carries of a set still
            // streaming can never be final.
            if let Some(c) = carry {
                if self.padded_sizes.get(&c.set_id) == Some(&(1u64 << (level + 1))) {
                    self.out_queue.push_back(ReduceEvent {
                        set_id: c.set_id,
                        value: c.value,
                    });
                    self.open_sets -= 1;
                    carry = None;
                }
            }
            level += 1;
        }
        self.high_water = self
            .high_water
            .max(self.levels.iter().filter(|l| l.held.is_some()).count());
    }
}

impl Reducer for KoggeTreeReducer {
    fn name(&self) -> &'static str {
        "Kogge lg(s)-adder chain [15]"
    }

    fn adders(&self) -> usize {
        self.levels.len()
    }

    /// Refuses input while zero-padding the previous set.
    fn ready(&self) -> bool {
        self.pads_owed == 0
    }

    fn tick(&mut self, input: Option<ReduceInput>) -> Option<ReduceEvent> {
        self.cycles += 1;

        if self.pads_owed > 0 {
            assert!(input.is_none(), "driver must respect ready()");
            self.pads_owed -= 1;
            let set_id = self.pad_set;
            self.advance(Some(Partial { value: 0.0, set_id }));
        } else if let Some(inp) = input {
            if self.current_set != Some(inp.set_id) {
                assert!(
                    self.current_set.is_none(),
                    "sets must be delivered sequentially"
                );
                self.current_set = Some(inp.set_id);
                self.current_count = 0;
                self.open_sets += 1;
            }
            self.current_count += 1;
            if inp.last {
                let padded = self.current_count.next_power_of_two();
                self.pads_owed = padded - self.current_count;
                self.pad_set = inp.set_id;
                self.padded_sizes.insert(inp.set_id, padded);
                self.current_set = None;
            }
            if inp.last && self.current_count == 1 {
                // A singleton is already its own sum; level 0 would never
                // pair it.
                self.out_queue.push_back(ReduceEvent {
                    set_id: inp.set_id,
                    value: inp.value,
                });
                self.open_sets -= 1;
                self.advance(None);
            } else {
                self.advance(Some(Partial {
                    value: inp.value,
                    set_id: inp.set_id,
                }));
            }
        } else {
            self.advance(None);
        }

        self.out_queue.pop_front()
    }

    fn is_done(&self) -> bool {
        self.open_sets == 0 && self.out_queue.is_empty() && self.pads_owed == 0
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn adds_issued(&self) -> u64 {
        self.adds_issued
    }

    fn buffer_high_water(&self) -> usize {
        self.high_water
    }

    fn buffered(&self) -> usize {
        self.levels.iter().filter(|l| l.held.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{reference_sums, run_sets, testutil::integer_sets};

    #[test]
    fn power_of_two_sets_are_exact_and_stall_free() {
        let sets = integer_sets(&[16, 64, 8, 2, 32]);
        let mut r = KoggeTreeReducer::new(14);
        let run = run_sets(&mut r, &sets);
        let expected = reference_sums(&sets);
        for ev in &run.results {
            assert_eq!(ev.value, expected[ev.set_id as usize]);
        }
        assert_eq!(run.stall_cycles, 0);
    }

    #[test]
    fn non_power_of_two_sets_stall_for_padding() {
        let sets = integer_sets(&[5, 9, 3]);
        let mut r = KoggeTreeReducer::new(14);
        let run = run_sets(&mut r, &sets);
        let expected = reference_sums(&sets);
        for ev in &run.results {
            assert_eq!(ev.value, expected[ev.set_id as usize]);
        }
        // 5→8 pads 3 and 9→16 pads 7 while later input waits; the final
        // set's single pad stalls nobody.
        assert_eq!(run.stall_cycles, 10);
    }

    #[test]
    fn adder_count_grows_logarithmically() {
        let sets = integer_sets(&[256]);
        let mut r = KoggeTreeReducer::new(14);
        run_sets(&mut r, &sets);
        assert_eq!(r.adders(), 8); // lg 256
    }

    #[test]
    fn singleton_sets() {
        let sets = integer_sets(&[1, 1, 4, 1]);
        let mut r = KoggeTreeReducer::new(6);
        let run = run_sets(&mut r, &sets);
        let expected = reference_sums(&sets);
        for ev in &run.results {
            assert_eq!(ev.value, expected[ev.set_id as usize]);
        }
    }

    #[test]
    fn held_registers_bounded_by_levels() {
        let sets = integer_sets(&[1000, 513, 7]);
        let mut r = KoggeTreeReducer::new(14);
        let run = run_sets(&mut r, &sets);
        assert!(run.buffer_high_water <= 11, "got {}", run.buffer_high_water);
    }

    #[test]
    fn back_to_back_sets_do_not_mix() {
        // Sets sized so a later set's values chase an earlier set's
        // partials through the chain.
        let sets = integer_sets(&[32, 32, 16, 8]);
        let mut r = KoggeTreeReducer::new(3);
        let run = run_sets(&mut r, &sets);
        let expected = reference_sums(&sets);
        for ev in &run.results {
            assert_eq!(ev.value, expected[ev.set_id as usize]);
        }
    }
}
