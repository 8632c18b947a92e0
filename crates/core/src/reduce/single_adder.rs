//! The proposed reduction circuit (paper §4.3): one pipelined adder, two
//! buffers of size α², multiple input sets of arbitrary size, and the
//! input is **never** stalled.
//!
//! # How the hazard is avoided
//!
//! The circuit never issues an addition whose operands include a value
//! that is still inside the adder pipeline. Each tracked set holds a pool
//! of *available* items plus a count of *pending* results in flight:
//!
//! * While a set is streaming in, its first α values are simply buffered.
//!   From the (α+1)-th value on, each new input is paired with one
//!   available buffered item of the same set and issued to the adder; the
//!   result returns to the set's pool α cycles later. The pool's
//!   availability balance never goes negative: by the time the (α+1)-th
//!   pairing would be issued, the first pairing's result has already
//!   returned (results are routed on the same clock edge before the next
//!   issue — the `peek` in `tick`). A streaming set therefore occupies at
//!   most α buffer slots, exactly the paper's bound.
//! * On cycles when the input does not need the adder (the first α values
//!   of a large set, every value of a small set, or idle input), the adder
//!   works for *completed* sets instead: the scheduler walks completed
//!   sets oldest-first and pairs two available items of the first set that
//!   has two. Because only architecturally-committed values are paired,
//!   this is hazard-free by construction, and walking oldest-first
//!   interleaves additions across sets exactly as the paper's
//!   column-by-column read of `Buf_red` does.
//!
//! The paper proves (report [29]) that its schedule needs at most two α²
//! buffers and finishes p sets in fewer than Σsᵢ + 2α² cycles. This
//! implementation enforces the same buffer bound with a hard assertion on
//! every cycle and the test-suite checks the latency bound across
//! adversarial workloads.
//!
//! # Periodic replay
//!
//! Because the schedule never looks at a value, a run of equal-size sets
//! settles into a period of exactly one set: from some set on, the
//! circuit's value-free *shape* at each set boundary (every row's
//! available and pending counts and complete flag, the row each adder
//! stage works for, the output queue's length) is the shape one set
//! earlier, shifted by one set. The fused replay (DESIGN.md §13) asks at
//! every boundary ([`Reducer::set_boundary`]); once the shape repeats
//! over sets of one length longer than α (shorter ones cost more to
//! replay than to step), the next set of that length, with set ids
//! running on consecutively, steps once on register names instead of
//! values, which records the period: its add program (which registers
//! pair, in issue order), the cycle each set leaves the output port and
//! the buffered words per cycle. Every later set of that length is then
//! one pass over the program on the real values
//! ([`Reducer::replay_set`]), with the circuit's counters, occupancy
//! histogram and 2α² check advanced as the ticks would have.

use super::{ReduceEvent, ReduceInput, Reducer, SetReplay};
use fblas_fpu::softfloat::add_f64;
use fblas_fpu::PipelinedAdder;
use fblas_sim::{DelayLine, EdgeKind, Histogram, Topology};
use std::collections::VecDeque;

/// Per-set state: the paper's "row" of a buffer.
#[derive(Debug)]
struct Row<V> {
    set_id: u64,
    /// Architecturally committed items of this set.
    avail: Vec<V>,
    /// Additions of this set currently inside the adder pipeline.
    pending: usize,
    /// True once the set's last input has arrived.
    complete: bool,
}

impl<V> Row<V> {
    fn items(&self) -> usize {
        self.avail.len() + self.pending
    }
}

/// The circuit's one pipelined adder as the schedule sees it: an
/// operation `(a, b, tag)` issues, and `(a + b, tag)` emerges α cycles
/// later.
trait Adder {
    /// What the adder carries: values, or register names.
    type V: Copy + std::fmt::Debug;
    /// The result emerging on the next step.
    fn peek(&self) -> Option<(Self::V, u64)>;
    /// Advance one cycle, issuing `op`.
    fn step(&mut self, op: Option<(Self::V, Self::V, u64)>);
    /// Every stage, the next to emerge first (bubbles as `None`).
    fn stages(&self) -> impl Iterator<Item = Option<(Self::V, u64)>>;
}

impl Adder for PipelinedAdder<u64> {
    type V = f64;

    fn peek(&self) -> Option<(f64, u64)> {
        PipelinedAdder::peek(self).map(|t| (t.value, t.tag))
    }

    fn step(&mut self, op: Option<(f64, f64, u64)>) {
        PipelinedAdder::step(self, op);
    }

    fn stages(&self) -> impl Iterator<Item = Option<(f64, u64)>> {
        PipelinedAdder::stages(self).map(|s| s.map(|t| (t.value, t.tag)))
    }
}

/// The period recorder: the adder's timing on register names, each
/// issued addition writing the next register of the add program.
#[derive(Debug)]
struct Recorder {
    pipe: DelayLine<(u32, u64)>,
    /// Operand registers of each issued addition, in issue order.
    ops: Vec<[u32; 2]>,
    /// The register the next addition writes.
    next: u32,
}

impl Adder for Recorder {
    type V = u32;

    fn peek(&self) -> Option<(u32, u64)> {
        self.pipe.peek().copied()
    }

    fn step(&mut self, op: Option<(u32, u32, u64)>) {
        let issued = op.map(|(a, b, tag)| {
            self.ops.push([a, b]);
            self.next += 1;
            (self.next - 1, tag)
        });
        self.pipe.step(issued);
    }

    fn stages(&self) -> impl Iterator<Item = Option<(u32, u64)>> {
        self.pipe.stages().map(Option::<&(u32, u64)>::copied)
    }
}

/// The §4.3 schedule over either adder: the rows, the adder and the
/// output port.
#[derive(Debug)]
struct Schedule<A: Adder> {
    alpha: usize,
    rows: VecDeque<Row<A::V>>,
    adder: A,
    out_queue: VecDeque<(u64, A::V)>,
    /// Items of every live row (committed + in flight).
    stored_items: usize,
}

impl<A: Adder> Schedule<A> {
    /// One clock edge, consuming the input `(set id, value, last)` if
    /// any: whether the adder issued, and the set leaving the output
    /// port.
    #[inline(always)]
    fn tick(&mut self, input: Option<(u64, A::V, bool)>) -> (bool, Option<(u64, A::V)>) {
        // 1. Route the result emerging this cycle before any issue
        //    decision — hardware sees it on the same clock edge.
        if let Some((value, tag)) = self.adder.peek() {
            let row = self.row_mut(tag);
            row.pending -= 1;
            row.avail.push(value);
        }

        // 2. Choose the adder operation. The input path has priority: an
        //    input that arrives while its set already holds α items *is*
        //    the adder's left operand this cycle.
        let mut op = None;
        if let Some((set_id, value, last)) = input {
            match self.rows.back() {
                Some(r) if !r.complete => assert_eq!(
                    r.set_id, set_id,
                    "sets must be delivered sequentially: set {} still open",
                    r.set_id
                ),
                _ => self.rows.push_back(Row {
                    set_id,
                    avail: Vec::with_capacity(self.alpha),
                    pending: 0,
                    complete: false,
                }),
            }
            let alpha = self.alpha;
            let row = self.rows.back_mut().expect("row just ensured");
            if row.items() < alpha {
                row.avail.push(value);
                self.stored_items += 1;
            } else {
                let partner = row
                    .avail
                    .pop()
                    .expect("availability balance: a streaming set always has a committed item");
                row.pending += 1;
                op = Some((value, partner, set_id));
            }
            row.complete = last;
        }

        // 3. If the input path left the adder free, reduce completed sets,
        //    oldest first (Buf_red's column-by-column interleave).
        if op.is_none() {
            if let Some(row) = self
                .rows
                .iter_mut()
                .find(|r| r.complete && r.avail.len() >= 2)
            {
                let a = row.avail.pop().expect("len >= 2");
                let b = row.avail.pop().expect("len >= 2");
                row.pending += 1;
                op = Some((a, b, row.set_id));
                self.stored_items -= 1;
            }
        }
        let issued = op.is_some();
        self.adder.step(op);

        // 4. Retire fully reduced sets to the output port.
        while let Some(pos) = self
            .rows
            .iter()
            .position(|r| r.complete && r.pending == 0 && r.avail.len() == 1)
        {
            let row = self.rows.remove(pos).expect("position valid");
            self.stored_items -= 1;
            self.out_queue.push_back((row.set_id, row.avail[0]));
        }
        (issued, self.out_queue.pop_front())
    }

    fn row_mut(&mut self, set_id: u64) -> &mut Row<A::V> {
        self.rows
            .iter_mut()
            .find(|r| r.set_id == set_id)
            .expect("result for unknown set")
    }

    /// The value-free shape at a set boundary: the row count; each
    /// row's available and pending counts and complete flag; each adder
    /// stage's set, counted back from the one after the newest row's (0
    /// for a bubble); the output queue's length. Equal shapes at two
    /// boundaries with consecutive set ids mean the schedule between
    /// them repeats from the second on.
    fn shape(&self, out: &mut Vec<u64>) {
        out.clear();
        // Wrapping: a key only, and set ids need not be in order.
        let next = self.rows.back().map_or(0, |r| r.set_id + 1);
        out.push(self.rows.len() as u64);
        for r in &self.rows {
            out.extend([
                r.avail.len() as u64,
                r.pending as u64,
                u64::from(r.complete),
            ]);
        }
        out.extend(
            self.adder
                .stages()
                .map(|s| s.map_or(0, |(_, tag)| next.wrapping_sub(tag))),
        );
        out.push(self.out_queue.len() as u64);
    }

    /// The buffered and in-flight items in canonical order: rows oldest
    /// first, each in push order, then the adder's stages, the next to
    /// emerge first.
    fn values(&self) -> impl Iterator<Item = A::V> + '_ {
        self.rows
            .iter()
            .flat_map(|r| r.avail.iter().copied())
            .chain(self.adder.stages().flatten().map(|(v, _)| v))
    }
}

/// One recorded steady-state period: a whole set of `len` inputs from a
/// boundary of shape `shape` back to the same shape one set on.
/// Registers number the boundary's items in canonical order, then the
/// set's inputs, then one per addition of `ops`.
#[derive(Debug)]
struct Period {
    shape: Vec<u64>,
    len: usize,
    ops: Vec<[u32; 2]>,
    /// The register of each of the end boundary's items, canonical order.
    end: Vec<u32>,
    /// Sets emitted: cycle in the period (1-based), the set's row at the
    /// start boundary (the row count for the period's own set), register.
    emits: Vec<(u64, usize, u32)>,
    /// Buffered words per cycle, as (words, cycles) runs.
    depths: Vec<(usize, u64)>,
}

impl Schedule<PipelinedAdder<u64>> {
    /// Step `set` from this boundary (of shape `shape`) on register
    /// names, recording the period — or `None` if the set does not bring
    /// the schedule back to `shape` with only the oldest row retired.
    fn record(&self, set: &[ReduceInput], shape: &[u64]) -> Option<Period> {
        // Registers in canonical order: the rows' items, then the stages.
        let mut regs = 0u32..;
        let mut reg = || regs.next().expect("register names are unbounded");
        let rows: VecDeque<Row<u32>> = self
            .rows
            .iter()
            .map(|r| Row {
                set_id: r.set_id,
                avail: r.avail.iter().map(|_| reg()).collect(),
                pending: r.pending,
                complete: r.complete,
            })
            .collect();
        let mut pipe = DelayLine::new(self.alpha);
        for stage in Adder::stages(&self.adder) {
            pipe.step(stage.map(|(_, tag)| (reg(), tag)));
        }
        let state = reg();
        let mut sym = Schedule {
            alpha: self.alpha,
            rows,
            adder: Recorder {
                pipe,
                ops: Vec::with_capacity(set.len()),
                next: state + set.len() as u32,
            },
            out_queue: VecDeque::new(),
            stored_items: self.stored_items,
        };
        let (mut emits, mut depths) = (Vec::new(), Vec::<(usize, u64)>::new());
        for (at, (input, reg)) in (1..).zip(set.iter().zip(state..)) {
            let (_, out) = sym.tick(Some((input.set_id, reg, input.last)));
            if let Some((set_id, reg)) = out {
                let row = self.rows.iter().position(|r| r.set_id == set_id);
                emits.push((at, row.unwrap_or(self.rows.len()), reg));
            }
            let words = sym.stored_items;
            match depths.last_mut() {
                Some((d, n)) if *d == words => *n += 1,
                _ => depths.push((words, 1)),
            }
        }
        let mut end_shape = Vec::new();
        sym.shape(&mut end_shape);
        let shifted = sym.rows.front().map(|r| r.set_id) == self.rows.front().map(|r| r.set_id + 1);
        (shifted && end_shape == shape).then(|| Period {
            shape: end_shape,
            len: set.len(),
            end: sym.values().collect(),
            ops: sym.adder.ops,
            emits,
            depths,
        })
    }
}

/// Periodic-replay state, touched only through the replay hooks.
#[derive(Debug, Default)]
struct Steady {
    /// The last set boundary's cycle, and the length of the set before
    /// it.
    at: Option<u64>,
    len: u64,
    /// The last boundary's shape (empty if not computed), and scratch
    /// for the next one's.
    shape: Vec<u64>,
    scratch: Vec<u64>,
    period: Option<Period>,
    /// Register file and emitted sets of the last replayed set.
    regs: Vec<f64>,
    emitted: Vec<(u64, ReduceEvent)>,
}

/// The paper's single-adder reduction circuit.
///
/// # Examples
///
/// ```
/// use fblas_core::reduce::{run_sets, Reducer, SingleAdderReducer};
///
/// // Three sets of different sizes, delivered one value per cycle.
/// let sets = vec![vec![1.0; 20], vec![2.0; 3], vec![0.5; 40]];
/// let mut circuit = SingleAdderReducer::with_paper_adder(); // α = 14
/// let run = run_sets(&mut circuit, &sets);
///
/// assert_eq!(run.stall_cycles, 0);             // input never stalls
/// assert_eq!(circuit.adders(), 1);             // one FP adder
/// assert!(run.buffer_high_water <= 2 * 14 * 14); // within 2α² words
/// let mut sums: Vec<f64> = run.results.iter().map(|e| e.value).collect();
/// sums.sort_by(f64::total_cmp);
/// assert_eq!(sums, vec![6.0, 20.0, 20.0]);
/// ```
#[derive(Debug)]
pub struct SingleAdderReducer {
    schedule: Schedule<PipelinedAdder<u64>>,
    cycles: u64,
    adds_issued: u64,
    high_water: usize,
    occupancy: Histogram,
    steady: Steady,
}

impl SingleAdderReducer {
    /// Create the circuit for an adder with `alpha` pipeline stages.
    pub fn new(alpha: usize) -> Self {
        assert!(alpha >= 2, "a pipelined adder has at least 2 stages");
        Self {
            schedule: Schedule {
                alpha,
                rows: VecDeque::new(),
                adder: PipelinedAdder::with_stages(alpha),
                out_queue: VecDeque::new(),
                stored_items: 0,
            },
            cycles: 0,
            adds_issued: 0,
            high_water: 0,
            occupancy: Histogram::new(2 * alpha * alpha + 1),
            steady: Steady::default(),
        }
    }

    /// Create the circuit for the paper's 14-stage adder.
    pub fn with_paper_adder() -> Self {
        Self::new(fblas_fpu::ADDER_STAGES)
    }

    /// The adder pipeline depth α.
    pub fn alpha(&self) -> usize {
        self.schedule.alpha
    }

    /// The claimed buffer capacity: two buffers of α² words.
    pub fn buffer_capacity(&self) -> usize {
        2 * self.alpha() * self.alpha()
    }

    /// Static channel graph (§4.3): one input stream into the single
    /// pipelined adder, whose partial results circulate through the two
    /// α²-word buffers — the feedback loop Theorem 1's buffer bound
    /// keeps deadlock-free at full input rate.
    pub fn topology(&self) -> Topology {
        let mut t = Topology::new(format!("reduce-single-adder[alpha={}]", self.alpha()));
        let input = t.source("input-stream");
        let reducer = t.pe("reduction", 1.0);
        let out = t.sink("results");
        t.edge(
            "input-feed",
            input,
            reducer,
            EdgeKind::Channel {
                words_per_cycle: 1.0,
                flops_per_word: 1.0,
            },
        );
        crate::topology::attach_reduction_loop(&mut t, reducer, self.alpha());
        t.edge(
            "result-port",
            reducer,
            out,
            EdgeKind::Channel {
                words_per_cycle: 1.0,
                flops_per_word: 0.0,
            },
        );
        t
    }

    /// Per-cycle distribution of buffered words, for sizing analyses
    /// (what fraction of the 2α² budget is typically occupied).
    pub fn occupancy_histogram(&self) -> &Histogram {
        &self.occupancy
    }

    /// Words currently buffered (committed + in-flight), for live traces.
    pub fn buffered_words(&self) -> usize {
        self.schedule.stored_items
    }

    /// Land `n` cycles of `words` buffered words: occupancy, high-water
    /// mark and the 2α² bound, checked in every build.
    fn note_items(&mut self, words: usize, n: u64) {
        self.occupancy.record_n(words, n);
        self.high_water = self.high_water.max(words);
        assert!(
            words <= self.buffer_capacity(),
            "buffer bound violated: {words} items exceed 2α² = {}",
            self.buffer_capacity()
        );
    }
}

impl Reducer for SingleAdderReducer {
    fn name(&self) -> &'static str {
        "single-adder α² (proposed)"
    }

    fn adders(&self) -> usize {
        1
    }

    /// The proposed circuit never exerts back-pressure.
    fn ready(&self) -> bool {
        true
    }

    /// `ready()` is constantly true and the §4.3 schedule pairs values
    /// by arrival time and set boundaries only — never by value — so
    /// owning designs may fast-forward their streaming phase around
    /// this circuit.
    fn never_stalls(&self) -> bool {
        true
    }

    fn tick(&mut self, input: Option<ReduceInput>) -> Option<ReduceEvent> {
        self.cycles += 1;
        let (issued, out) = self
            .schedule
            .tick(input.map(|i| (i.set_id, i.value, i.last)));
        self.adds_issued += u64::from(issued);
        self.note_items(self.schedule.stored_items, 1);
        out.map(|(set_id, value)| ReduceEvent { set_id, value })
    }

    fn is_done(&self) -> bool {
        let s = &self.schedule;
        s.rows.is_empty() && s.out_queue.is_empty() && s.adder.is_empty()
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
        self.schedule.stored_items
    }

    /// Arms, offering the last set's length `len`, once the last two
    /// sets were `len` inputs long and the boundary shape equals the
    /// last boundary's or a recorded period's start of that length; an
    /// output queue holding a set never arms. Sets of α inputs or fewer
    /// keep ticking: a period that short costs more to replay than to
    /// step.
    fn set_boundary(&mut self) -> Option<usize> {
        let (s, st) = (&self.schedule, &mut self.steady);
        let len = st.at.map_or(0, |at| self.cycles - at);
        st.at = Some(self.cycles);
        let same_len = std::mem::replace(&mut st.len, len) == len;
        if len <= s.alpha as u64 || !same_len {
            st.shape.clear();
            return None;
        }
        s.shape(&mut st.scratch);
        let repeats = st.shape == st.scratch;
        std::mem::swap(&mut st.shape, &mut st.scratch);
        let period = st
            .period
            .as_ref()
            .is_some_and(|p| p.len as u64 == len && p.shape == st.shape);
        ((repeats || period) && s.out_queue.is_empty()).then_some(len as usize)
    }

    /// Replays only a set whose inputs all carry the set id after the
    /// newest row's, with `last` on the final input alone, onto rows of
    /// consecutive set ids; a set id that changes mid-set panics as the
    /// tick does.
    fn replay_set(&mut self, set: &[ReduceInput]) -> Option<SetReplay<'_>> {
        let id = set.first()?.set_id;
        let mut whole = true;
        for (k, input) in set.iter().enumerate() {
            assert_eq!(
                input.set_id, id,
                "sets must be delivered sequentially: set {id} still open"
            );
            whole &= input.last == (k + 1 == set.len());
        }
        let rows = &self.schedule.rows;
        if let Some(r) = rows.back().filter(|r| !r.complete) {
            assert_eq!(
                r.set_id, id,
                "sets must be delivered sequentially: set {} still open",
                r.set_id
            );
            return None;
        }
        let consecutive = rows
            .iter()
            .rev()
            .zip(1..)
            .all(|(r, k)| id.checked_sub(k) == Some(r.set_id));
        if !whole || !consecutive {
            return None;
        }
        let st = &mut self.steady;
        let p = match st.period.take() {
            Some(p) if p.shape == st.shape && p.len == set.len() => p,
            _ => self.schedule.record(set, &st.shape)?,
        };
        let (s, regs) = (&mut self.schedule, &mut self.steady.regs);

        // The add program over the boundary's items and the set's inputs.
        regs.clear();
        regs.extend(s.values());
        regs.extend(set.iter().map(|i| i.value));
        for &[a, b] in &p.ops {
            regs.push(add_f64(regs[a as usize], regs[b as usize]));
        }
        let emitted = &mut self.steady.emitted;
        emitted.clear();
        emitted.extend(p.emits.iter().map(|&(at, row, reg)| {
            let set_id = s.rows.get(row).map_or(id, |r| r.set_id);
            let value = regs[reg as usize];
            (at, ReduceEvent { set_id, value })
        }));

        // The end boundary has the start's shape one set on: the same
        // rows and stages, each holding the next set's items (set ids
        // are consecutive, so one set on is one id on).
        let mut end = p.end.iter().map(|&r| regs[r as usize]);
        let mut next = || end.next().expect("end state matches the shape");
        for v in s.rows.iter_mut().flat_map(|r| r.avail.iter_mut()) {
            *v = next();
        }
        for t in s.adder.stages_mut().flatten() {
            t.value = next();
            t.tag += 1;
        }
        for row in &mut s.rows {
            row.set_id += 1;
        }

        self.cycles += p.len as u64;
        self.adds_issued += p.ops.len() as u64;
        for &(words, n) in &p.depths {
            self.note_items(words, n);
        }
        let p = self.steady.period.insert(p);
        Some(SetReplay {
            emitted: &self.steady.emitted,
            depths: &p.depths,
        })
    }

    /// Targets the architecturally committed words (`avail` pools, oldest
    /// row first, push order within a row); in-flight adder state is not
    /// addressable here — use the pipeline hooks for that.
    fn fault_stuck_at(&mut self, slot: usize, bit: u32) -> bool {
        let rows = &mut self.schedule.rows;
        let total: usize = rows.iter().map(|r| r.avail.len()).sum();
        if total == 0 {
            return false;
        }
        let mut idx = slot % total;
        for row in rows {
            if idx < row.avail.len() {
                row.avail[idx] = fblas_sim::clear_f64_bit(row.avail[idx], bit);
                return true;
            }
            idx -= row.avail.len();
        }
        unreachable!("idx reduced modulo the total avail count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{reference_sums, run_sets, testutil::integer_sets};

    const ALPHA: usize = 14;

    fn check_exact(sizes: &[usize]) -> crate::reduce::ReductionRun {
        let sets = integer_sets(sizes);
        let mut r = SingleAdderReducer::new(ALPHA);
        let run = run_sets(&mut r, &sets);
        let expected = reference_sums(&sets);
        assert_eq!(run.results.len(), sets.len());
        let mut got = vec![f64::NAN; sets.len()];
        for ev in &run.results {
            got[ev.set_id as usize] = ev.value;
        }
        for (i, (&g, &e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g, e, "set {i}: got {g}, expected {e}");
        }
        run
    }

    #[test]
    fn single_large_set() {
        check_exact(&[1000]);
    }

    #[test]
    fn single_tiny_sets() {
        check_exact(&[1]);
        check_exact(&[2]);
        check_exact(&[3]);
    }

    #[test]
    fn set_sizes_around_alpha() {
        check_exact(&[ALPHA - 1, ALPHA, ALPHA + 1, 2 * ALPHA, 2 * ALPHA + 1]);
    }

    #[test]
    fn many_mixed_sets() {
        check_exact(&[5, 100, 1, 17, 64, 2, 333, 14, 15, 28, 1, 1, 9]);
    }

    #[test]
    fn flood_of_singletons() {
        check_exact(&vec![1; 200]);
    }

    #[test]
    fn flood_of_pairs() {
        check_exact(&vec![2; 150]);
    }

    #[test]
    fn never_stalls_input() {
        let sets = integer_sets(&[1, 50, 2, 14, 300, 1, 7]);
        let mut r = SingleAdderReducer::new(ALPHA);
        let run = run_sets(&mut r, &sets);
        assert_eq!(run.stall_cycles, 0, "proposed circuit must never stall");
    }

    #[test]
    fn buffer_stays_within_two_alpha_squared() {
        // The in-circuit assertion enforces the bound on every cycle; this
        // test exercises adversarial mixes and reads the high-water mark.
        for sizes in [
            vec![1usize; 300],
            vec![2; 200],
            vec![ALPHA + 1; 60],
            vec![ALPHA * 2; 40],
            vec![3, 1, ALPHA, 500, 1, 1, ALPHA + 1, 29, 2, 2, 2, 100],
        ] {
            let sets = integer_sets(&sizes);
            let mut r = SingleAdderReducer::new(ALPHA);
            let run = run_sets(&mut r, &sets);
            assert!(
                run.buffer_high_water <= 2 * ALPHA * ALPHA,
                "sizes {sizes:?}: high water {}",
                run.buffer_high_water
            );
        }
    }

    #[test]
    fn latency_bound_sum_plus_two_alpha_squared() {
        // Paper: p sets reduce in fewer than Σsᵢ + 2α² cycles.
        for sizes in [
            vec![1000usize],
            vec![64; 20],
            vec![1; 100],
            vec![5, 100, 1, 17, 64, 2, 333, 14, 15],
        ] {
            let sets = integer_sets(&sizes);
            let total: u64 = sizes.iter().map(|&s| s as u64).sum();
            let mut r = SingleAdderReducer::new(ALPHA);
            let run = run_sets(&mut r, &sets);
            let bound = total + 2 * (ALPHA as u64 * ALPHA as u64);
            assert!(
                run.total_cycles < bound,
                "sizes {sizes:?}: {} cycles ≥ bound {bound}",
                run.total_cycles
            );
        }
    }

    #[test]
    fn exactly_one_add_per_input_beyond_first() {
        // Reducing a set of size s needs exactly s − 1 additions; the
        // circuit performs no redundant work.
        let sets = integer_sets(&[17, 4, 1, 99]);
        let total: u64 = sets.iter().map(|s| s.len() as u64).sum();
        let mut r = SingleAdderReducer::new(ALPHA);
        let run = run_sets(&mut r, &sets);
        assert_eq!(run.adds_issued, total - sets.len() as u64);
    }

    #[test]
    fn small_alpha_still_correct() {
        let sets = integer_sets(&[9, 3, 1, 20, 2]);
        let mut r = SingleAdderReducer::new(2);
        let run = run_sets(&mut r, &sets);
        let expected = reference_sums(&sets);
        for ev in &run.results {
            assert_eq!(ev.value, expected[ev.set_id as usize]);
        }
    }

    #[test]
    fn occupancy_histogram_tracks_distribution() {
        let sets = integer_sets(&[40, 40, 40, 40]);
        let mut r = SingleAdderReducer::new(ALPHA);
        run_sets(&mut r, &sets);
        let h = r.occupancy_histogram();
        assert!(h.samples() > 0);
        assert_eq!(h.max_seen(), r.buffer_high_water());
        assert!(h.percentile(1.0) <= 2 * ALPHA * ALPHA);
        assert!(h.mean() <= r.buffer_high_water() as f64);
    }

    #[test]
    fn works_with_paper_adder_depth() {
        let r = SingleAdderReducer::with_paper_adder();
        assert_eq!(r.alpha(), 14);
        assert_eq!(r.buffer_capacity(), 392);
    }

    #[test]
    fn fault_stuck_at_clears_a_buffered_bit_or_masks_when_empty() {
        use crate::reduce::ReduceInput;
        let mut r = SingleAdderReducer::new(4);
        assert!(!r.fault_stuck_at(0, 52), "empty circuit masks the fault");
        // Buffer three values of an open set (fewer than α, all committed).
        for &v in &[3.0, 5.0, 7.0] {
            r.tick(Some(ReduceInput {
                set_id: 0,
                value: v,
                last: false,
            }));
        }
        // Slot 1 is 5.0 = 1.25·2²; clearing exponent bit 52 makes 2.5.
        assert!(r.fault_stuck_at(1, 52));
        r.tick(Some(ReduceInput {
            set_id: 0,
            value: 1.0,
            last: true,
        }));
        let mut result = None;
        for _ in 0..200 {
            if let Some(ev) = r.tick(None) {
                result = Some(ev);
            }
            if r.is_done() {
                break;
            }
        }
        assert_eq!(result.expect("set retires").value, 3.0 + 2.5 + 7.0 + 1.0);
    }

    #[test]
    fn reducers_without_exposed_storage_mask_stuck_at_faults() {
        let mut r = crate::reduce::StallingReducer::new(4);
        assert!(!r.fault_stuck_at(0, 5), "trait default masks");
    }

    /// Feed `sizes` back to back (one input per cycle, set i with id
    /// `stride`·i) through `r` — replaying each set the circuit offers to
    /// replay if `replay`, else ticking it — then drain: every emitted
    /// `(cycle, set, bits)`, and the number of sets replayed.
    fn drive(
        r: &mut SingleAdderReducer,
        sizes: &[usize],
        stride: u64,
        replay: bool,
    ) -> (Vec<(u64, u64, u64)>, usize) {
        let (mut events, mut replayed, mut t) = (Vec::new(), 0, 0);
        let ev = |t: u64, e: ReduceEvent| (t, e.set_id, e.value.to_bits());
        for (id, set) in integer_sets(sizes).iter().enumerate() {
            let set: Vec<ReduceInput> = (0..set.len())
                .map(|j| ReduceInput {
                    set_id: stride * id as u64,
                    // Full-mantissa values: any change of association shows.
                    value: set[j] * 1.000_000_1 + 0.3 / (j + 1) as f64,
                    last: j + 1 == set.len(),
                })
                .collect();
            let armed = replay && r.set_boundary() == Some(set.len());
            if let Some(period) = armed.then(|| r.replay_set(&set)).flatten() {
                events.extend(period.emitted.iter().map(|&(at, e)| ev(t + at, e)));
                t += set.len() as u64;
                replayed += 1;
                continue;
            }
            for &input in &set {
                t += 1;
                events.extend(r.tick(Some(input)).map(|e| ev(t, e)));
            }
        }
        while !r.is_done() {
            t += 1;
            events.extend(r.tick(None).map(|e| ev(t, e)));
        }
        (events, replayed)
    }

    /// The periodic replay lands every set at the cycle and with the bits
    /// ticking produces, and leaves the circuit's counters and occupancy
    /// histogram where ticking leaves them — across size switches too.
    #[test]
    fn periodic_replay_matches_ticking() {
        for sizes in [
            vec![20; 24],
            vec![28; 24],
            vec![64; 24],
            vec![256; 24],
            vec![512; 24],
            [vec![512; 10], vec![64; 10], vec![512; 5], vec![1; 8]].concat(),
            vec![15; 40],
        ] {
            let mut replay = SingleAdderReducer::new(ALPHA);
            let (got, replayed) = drive(&mut replay, &sizes, 1, true);
            let mut stepped = SingleAdderReducer::new(ALPHA);
            let (want, _) = drive(&mut stepped, &sizes, 1, false);
            assert_eq!(got, want, "sizes {sizes:?}");
            assert!(replayed >= 8, "sizes {sizes:?}: {replayed} replayed");
            assert_eq!(replay.cycles(), stepped.cycles());
            assert_eq!(replay.adds_issued(), stepped.adds_issued());
            assert_eq!(replay.buffer_high_water(), stepped.buffer_high_water());
            assert_eq!(replay.occupancy_histogram(), stepped.occupancy_histogram());
        }
    }

    /// Sets of α values or fewer keep ticking: α and α/2 never settle
    /// into a one-set period (the emit offsets wander), and shorter
    /// periods cost more to replay than to step.
    #[test]
    fn sets_of_alpha_or_fewer_keep_stepping() {
        for size in [1, 2, ALPHA / 2, ALPHA] {
            let (_, replayed) = drive(&mut SingleAdderReducer::new(ALPHA), &[size; 60], 1, true);
            assert_eq!(replayed, 0, "sets of {size}");
        }
    }

    /// Set ids that skip keep ticking: one set on is then not one id on.
    #[test]
    fn gapped_set_ids_keep_stepping() {
        let sizes = [64; 24];
        let (got, replayed) = drive(&mut SingleAdderReducer::new(ALPHA), &sizes, 2, true);
        let (want, _) = drive(&mut SingleAdderReducer::new(ALPHA), &sizes, 2, false);
        assert_eq!(got, want);
        assert_eq!(replayed, 0);
    }

    /// A set id that changes mid-set panics under replay as under ticks.
    #[test]
    #[should_panic(expected = "sets must be delivered sequentially: set 24 still open")]
    fn replay_rejects_a_set_id_that_changes_mid_set() {
        let mut r = SingleAdderReducer::new(ALPHA);
        drive(&mut r, &[64; 24], 1, true);
        let mut set: Vec<ReduceInput> = (0..64)
            .map(|j| ReduceInput {
                set_id: 24,
                value: 1.0,
                last: j == 63,
            })
            .collect();
        set[30].set_id = 25;
        r.replay_set(&set);
    }

    #[test]
    fn negative_and_fractional_values_sum_correctly() {
        // Powers of two and their negatives sum exactly in any order.
        let sets: Vec<Vec<f64>> = vec![
            (0..40)
                .map(|i| if i % 2 == 0 { 0.5 } else { -0.25 })
                .collect(),
            (0..33).map(|i| 2.0f64.powi(i % 8)).collect(),
        ];
        let mut r = SingleAdderReducer::new(ALPHA);
        let run = run_sets(&mut r, &sets);
        let expected = reference_sums(&sets);
        for ev in &run.results {
            assert_eq!(ev.value, expected[ev.set_id as usize]);
        }
    }
}
