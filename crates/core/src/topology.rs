//! Shared channel-graph builders for the designs' `topology()` exports.
//!
//! Every design in this crate can describe itself as a static
//! [`Topology`] — PEs, FIFOs/delay lines with depths, memory channels
//! with rates — which `fblas-check` analyzes for deadlock-freedom and
//! sound throughput bounds without running a cycle. Two structures recur
//! across the designs and are built here:
//!
//! * the **§4.3 reduction loop**: a single pipelined adder (α stages)
//!   whose partial results circulate back through two α²-word buffers —
//!   the feedback cycle whose 2α² capacity is the paper's central
//!   buffer-size claim;
//! * the **gated backlog**: the tree front ends stop issuing once two
//!   values wait at the reduction circuit, so the 2 + tree-latency
//!   backlog FIFO provably absorbs everything in flight — exported as a
//!   credit cycle through the backlog storage.
//!
//! Conventions shared by all exports: channel rates are *provisioned*
//! port widths in words per cycle (the numbers a bandwidth budget must
//! reserve), `flops_per_word` is carried only on input channels (the
//! quantity behind the paper's I/O-bound peaks, §4.4), and every
//! feedback loop routes through at least one [`EdgeKind::Fifo`] edge
//! whose depth is the architecture's claimed buffer bound.

use fblas_sim::graph::{EdgeKind, NodeId, Topology};

/// Attach the §4.3 reduction-circuit feedback loop to `reducer`: partial
/// sums leave the α-stage adder pipeline and wait in the circuit's two
/// α²-word buffers until their partner operand arrives, then re-enter
/// the adder. The loop's 2α² of storage against α tokens in flight is
/// exactly the non-stalling guarantee Theorem 1 proves.
pub fn attach_reduction_loop(t: &mut Topology, reducer: NodeId, alpha: usize) {
    let base = t.nodes[reducer.0].name.clone();
    let buffers = t.junction(format!("{base}-buffers"));
    t.edge(
        format!("{base}-adder-pipe"),
        reducer,
        buffers,
        EdgeKind::Delay { stages: alpha },
    );
    t.edge(
        format!("{base}-buffer-store"),
        buffers,
        reducer,
        EdgeKind::Fifo {
            depth: 2 * alpha * alpha,
        },
    );
}

/// Attach the gated tree backlog between a tree front end and the
/// reduction circuit: `producer`'s results spend `latency` cycles in the
/// multiplier/adder-tree pipeline, land in a `2 + latency` backlog FIFO,
/// and are consumed by `consumer`; a credit wire from the consumer back
/// to `gate` models the front-end gate (issue only while fewer than two
/// values wait), closing the cycle the backlog's capacity must cover.
pub fn attach_gated_backlog(
    t: &mut Topology,
    producer: NodeId,
    consumer: NodeId,
    gate: NodeId,
    latency: usize,
) -> NodeId {
    let backlog = t.junction("backlog");
    t.edge(
        "tree-pipe",
        producer,
        backlog,
        EdgeKind::Delay { stages: latency },
    );
    t.edge(
        "backlog-store",
        backlog,
        consumer,
        EdgeKind::Fifo { depth: 2 + latency },
    );
    t.edge("issue-credit", consumer, gate, EdgeKind::Wire);
    backlog
}

/// The tree-reduce family's graph (§4.1–4.3): each `feeds` entry
/// (source, edge, words/cycle, flops/word) streams into the k-lane
/// multiplier bank, joined by the `x` local store (junction, edge) when
/// given; the lockstep adder tree reaches the reduction circuit through
/// the gated backlog, and results leave on `out` (sink, edge).
pub fn tree_reduce(
    name: String,
    k: usize,
    latency: usize,
    alpha: usize,
    feeds: &[(&str, &str, f64, f64)],
    x: Option<(&str, &str)>,
    out: (&str, &str),
) -> Topology {
    let mut t = Topology::new(name);
    let sources: Vec<NodeId> = feeds.iter().map(|f| t.source(f.0)).collect();
    let x = x.map(|(node, edge)| (t.junction(node), edge));
    let mult = t.pe("mult-bank", k as f64);
    let tree = t.pe("adder-tree", (k - 1) as f64);
    let reducer = t.pe("reduction", 1.0);
    let sink = t.sink(out.0);
    for (&(_, edge, words_per_cycle, flops_per_word), &source) in feeds.iter().zip(&sources) {
        let kind = EdgeKind::Channel {
            words_per_cycle,
            flops_per_word,
        };
        t.edge(edge, source, mult, kind);
    }
    if let Some((store, edge)) = x {
        t.edge(edge, store, mult, EdgeKind::Wire);
    }
    t.edge("lockstep", mult, tree, EdgeKind::Wire);
    attach_gated_backlog(&mut t, tree, reducer, mult, latency);
    attach_reduction_loop(&mut t, reducer, alpha);
    let port = EdgeKind::Channel {
        words_per_cycle: 1.0,
        flops_per_word: 0.0,
    };
    t.edge(out.1, reducer, sink, port);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_loop_shape() {
        let mut t = Topology::new("loop");
        let red = t.pe("reduction", 1.0);
        attach_reduction_loop(&mut t, red, 14);
        assert_eq!(t.nodes.len(), 2);
        assert!(t
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Fifo { depth: 2 * 14 * 14 }));
        assert!(t
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Delay { stages: 14 }));
    }

    #[test]
    fn gated_backlog_closes_a_credit_cycle() {
        let mut t = Topology::new("gate");
        let front = t.pe("front", 2.0);
        let red = t.pe("reduction", 1.0);
        attach_gated_backlog(&mut t, front, red, front, 21);
        assert!(t
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Fifo { depth: 23 }));
        assert!(t.edges.iter().any(|e| e.kind == EdgeKind::Wire));
    }
}
