//! The routed fabric: chassis layout, per-shard routes, and the
//! store-and-forward network that moves operand and result words.
//!
//! Shard 0 sits next to the global operand source (the paper's head
//! node DRAM), so its traffic never touches a link. Every other shard
//! is reached by a deterministic static route:
//!
//! * same chassis as the source: `RocketIO` hops `c0/hop0 .. c0/hop<l-1>`
//!   along the ring;
//! * remote chassis `c`: one `RapidArray` trunk `ra/c<c>` straight to the
//!   chassis hub, then that chassis' own local hops `c<c>/hop<h>`.
//!
//! Each route direction is a separate [`FabricLink`] (the XD1 links
//! are full duplex), so result drain never steals operand bandwidth —
//! but flows *within* a direction share each hop and contend there.
//! Routing tables are plain `Vec` position lookups: no hash maps, per
//! the workspace determinism lint.

use crate::link::{FabricLink, LinkClass, LinkReport, RingSpec};

/// Direction of a link relative to the operand source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDir {
    /// Source → shard (operand distribution, broadcast).
    Forward,
    /// Shard → source (result gather).
    Return,
}

/// Static description of one link in the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkMeta {
    /// Stable name, e.g. `c0/hop1` or `ra/c1`.
    pub name: String,
    /// Physical class (fixes capacity and latency).
    pub class: LinkClass,
    /// Direction of this instance.
    pub dir: LinkDir,
}

/// Chassis/ring layout for `shards` FPGAs over `chassis` chassis.
#[derive(Debug, Clone)]
pub struct Layout {
    shards: usize,
    chassis: usize,
    links: Vec<LinkMeta>,
    /// Forward route per shard: link indices source → shard, in hop
    /// order. Empty for shard 0 (source-local).
    forward: Vec<Vec<usize>>,
    /// Return route per shard: link indices shard → source.
    ret: Vec<Vec<usize>>,
}

impl Layout {
    /// Build the layout. Shards are numbered ring-position-major:
    /// chassis `c` holds shards `c*per_chassis .. (c+1)*per_chassis`.
    ///
    /// # Panics
    /// Panics if `shards` or `chassis` is zero, or `chassis` does not
    /// divide `shards`.
    pub fn new(shards: usize, chassis: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(chassis > 0, "at least one chassis");
        assert!(
            shards.is_multiple_of(chassis),
            "chassis count {chassis} must divide shard count {shards}"
        );
        let per_chassis = shards / chassis;

        let mut links = Vec::new();
        let fwd_of = |name: String, class: LinkClass, links: &mut Vec<LinkMeta>| {
            links.push(LinkMeta {
                name,
                class,
                dir: LinkDir::Forward,
            });
            links.len() - 1
        };

        // Forward plane. Chassis 0 local hops: hop h carries traffic
        // past ring position h (to positions h+1..).
        let mut c0_hops = Vec::new();
        for h in 0..per_chassis.saturating_sub(1) {
            c0_hops.push(fwd_of(
                format!("c0/hop{h}"),
                LinkClass::RocketIo,
                &mut links,
            ));
        }
        // Remote chassis: one RapidArray trunk each, then local hops.
        let mut ra = Vec::new();
        let mut local_hops = Vec::new();
        for c in 1..chassis {
            ra.push(fwd_of(
                format!("ra/c{c}"),
                LinkClass::RapidArray,
                &mut links,
            ));
            let mut hops = Vec::new();
            for h in 0..per_chassis.saturating_sub(1) {
                hops.push(fwd_of(
                    format!("c{c}/hop{h}"),
                    LinkClass::RocketIo,
                    &mut links,
                ));
            }
            local_hops.push(hops);
        }

        // Return plane mirrors the forward plane, link for link.
        let fwd_count = links.len();
        for i in 0..fwd_count {
            links.push(LinkMeta {
                name: format!("{}/ret", links[i].name),
                class: links[i].class,
                dir: LinkDir::Return,
            });
        }
        let ret_of = |fwd_idx: usize| fwd_idx + fwd_count;

        let mut forward = Vec::with_capacity(shards);
        let mut ret = Vec::with_capacity(shards);
        for j in 0..shards {
            let c = j / per_chassis;
            let pos = j % per_chassis;
            let mut route = Vec::new();
            if c == 0 {
                route.extend_from_slice(&c0_hops[..pos]);
            } else {
                route.push(ra[c - 1]);
                route.extend_from_slice(&local_hops[c - 1][..pos]);
            }
            let back: Vec<usize> = route.iter().rev().map(|&i| ret_of(i)).collect();
            forward.push(route);
            ret.push(back);
        }

        Self {
            shards,
            chassis,
            links,
            forward,
            ret,
        }
    }

    /// Number of shards in the layout.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of chassis in the layout.
    pub fn chassis(&self) -> usize {
        self.chassis
    }

    /// All links, forward plane first then the mirrored return plane.
    pub fn links(&self) -> &[LinkMeta] {
        &self.links
    }

    /// Forward route (link indices, hop order) for `shard`.
    pub fn forward_route(&self, shard: usize) -> &[usize] {
        &self.forward[shard]
    }

    /// Return route (link indices, hop order) for `shard`.
    pub fn return_route(&self, shard: usize) -> &[usize] {
        &self.ret[shard]
    }
}

/// Words arriving at route endpoints during one network cycle.
#[derive(Debug, Default)]
pub struct NetDeliveries {
    /// Operand words delivered to a shard's ingress: `(shard, words)`.
    pub ingress: Vec<(usize, u64)>,
    /// Result words landing back at the source: `(shard, words)`.
    pub returned: Vec<(usize, u64)>,
}

/// The live network: one [`FabricLink`] per layout link, plus routing.
#[derive(Debug)]
pub struct RingNet {
    layout: Layout,
    links: Vec<FabricLink>,
    egress_capacity_words: u64,
    /// Words granted onto any wire plus words delivered at any endpoint.
    progress_words: u64,
    /// One link's arrivals of the current cycle, reused across ticks.
    arrivals: Vec<(usize, u64)>,
}

impl RingNet {
    /// Instantiate the links of `layout` under `spec`.
    pub fn new(layout: Layout, spec: &RingSpec) -> Self {
        let shards = layout.shards();
        let links = layout
            .links()
            .iter()
            .map(|meta| {
                FabricLink::new(
                    meta.class,
                    spec.rate(meta.class),
                    spec.latency(meta.class),
                    shards,
                )
            })
            .collect();
        Self {
            layout,
            links,
            egress_capacity_words: spec.egress_capacity_words,
            progress_words: 0,
            arrivals: Vec::new(),
        }
    }

    /// The static layout behind this network.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Whether `shard` is reached without touching any link.
    pub fn is_local(&self, shard: usize) -> bool {
        self.layout.forward_route(shard).is_empty()
    }

    /// Inject `words` of operand traffic for `shard` at the source.
    ///
    /// # Panics
    /// Panics for a source-local shard — its operands never enter the
    /// network; the caller banks them directly.
    pub fn offer_forward(&mut self, shard: usize, words: u64) {
        let route = self.layout.forward_route(shard);
        assert!(!route.is_empty(), "shard {shard} is source-local");
        self.links[route[0]].offer(shard, words);
    }

    /// Inject `words` of result traffic from `shard` toward the source.
    ///
    /// # Panics
    /// Panics for a source-local shard (results are handed over
    /// directly).
    pub fn offer_return(&mut self, shard: usize, words: u64) {
        let route = self.layout.return_route(shard);
        assert!(!route.is_empty(), "shard {shard} is source-local");
        self.links[route[0]].offer(shard, words);
    }

    /// Free space on `shard`'s first return hop, in words: the egress
    /// capacity minus what is already queued there. A shard must hold
    /// completed results (backpressure) when this reaches zero.
    pub fn return_headroom(&self, shard: usize) -> u64 {
        let route = self.layout.return_route(shard);
        if route.is_empty() {
            return u64::MAX;
        }
        self.egress_capacity_words
            .saturating_sub(self.links[route[0]].backlog_words())
    }

    /// Advance every link one cycle and route arrivals: words leaving
    /// a link either enter the next hop on their flow's route or land
    /// at the endpoint (shard ingress / source return sink). `out` is
    /// cleared and refilled with this cycle's deliveries.
    pub fn tick(&mut self, out: &mut NetDeliveries) {
        out.ingress.clear();
        out.returned.clear();
        // Ascending link order is creation order; forward routes run
        // through ascending indices, so a word can traverse at most
        // one hop per cycle (store-and-forward, never cut-through).
        for i in 0..self.links.len() {
            self.arrivals.clear();
            self.progress_words += self.links[i].tick(&mut self.arrivals);
            let dir = self.layout.links()[i].dir;
            for &(flow, words) in &self.arrivals {
                let (route, sink) = match dir {
                    LinkDir::Forward => (self.layout.forward_route(flow), &mut out.ingress),
                    LinkDir::Return => (self.layout.return_route(flow), &mut out.returned),
                };
                let pos = route
                    .iter()
                    .position(|&l| l == i)
                    .expect("arrival off its route");
                if let Some(&next) = route.get(pos + 1) {
                    self.links[next].offer(flow, words);
                } else {
                    self.progress_words += words;
                    sink.push((flow, words));
                }
            }
        }
    }

    /// Whether every link is drained (no queued or in-flight words).
    pub fn is_idle(&self) -> bool {
        self.links.iter().all(FabricLink::is_idle)
    }

    /// Monotone progress counter: words delivered at any endpoint plus
    /// words granted onto any wire (traffic mid-route still counts).
    pub fn progress_words(&self) -> u64 {
        self.progress_words
    }

    /// Per-link cumulative statistics, in layout order.
    pub fn link_reports(&self) -> Vec<LinkReport> {
        self.layout
            .links()
            .iter()
            .zip(&self.links)
            .map(|(meta, link)| link.report(&meta.name))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_layout_has_no_links() {
        let l = Layout::new(1, 1);
        assert!(l.links().is_empty());
        assert!(l.forward_route(0).is_empty());
        assert!(l.return_route(0).is_empty());
    }

    #[test]
    fn six_shard_single_chassis_routes_walk_the_ring() {
        let l = Layout::new(6, 1);
        // 5 forward hops + 5 mirrored return hops.
        assert_eq!(l.links().len(), 10);
        assert_eq!(l.forward_route(0).len(), 0);
        assert_eq!(l.forward_route(1).len(), 1);
        assert_eq!(l.forward_route(5).len(), 5);
        // Return route is the forward route reversed onto return links.
        assert_eq!(l.return_route(5).len(), 5);
        assert_eq!(l.links()[l.return_route(5)[0]].name, "c0/hop4/ret");
        assert_eq!(l.links()[l.return_route(5)[4]].name, "c0/hop0/ret");
    }

    #[test]
    fn two_chassis_routes_use_the_rapidarray_trunk() {
        let l = Layout::new(12, 2);
        // Per chassis: 5 local hops; plus one RA trunk; ×2 directions.
        assert_eq!(l.links().len(), (5 + 1 + 5) * 2);
        // Shard 6 is the remote chassis hub: RA trunk only.
        let r6 = l.forward_route(6);
        assert_eq!(r6.len(), 1);
        assert_eq!(l.links()[r6[0]].name, "ra/c1");
        assert_eq!(l.links()[r6[0]].class, LinkClass::RapidArray);
        // Shard 11 is the far corner: trunk + 5 local hops.
        let r11 = l.forward_route(11);
        assert_eq!(r11.len(), 6);
        assert_eq!(l.links()[r11[5]].name, "c1/hop4");
        // Chassis-0 traffic never rides the trunk.
        for j in 0..6 {
            for &i in l.forward_route(j) {
                assert_eq!(l.links()[i].class, LinkClass::RocketIo);
            }
        }
    }

    #[test]
    fn net_delivers_across_multiple_hops_in_order() {
        let spec = RingSpec {
            intra_words_per_cycle: 2.0,
            inter_words_per_cycle: 4.0,
            intra_latency_cycles: 1,
            inter_latency_cycles: 2,
            egress_capacity_words: 64,
        };
        let mut net = RingNet::new(Layout::new(3, 1), &spec);
        net.offer_forward(2, 6);
        let mut got = 0;
        let mut deliveries = NetDeliveries::default();
        for _ in 0..40 {
            net.tick(&mut deliveries);
            for &(shard, words) in &deliveries.ingress {
                assert_eq!(shard, 2);
                got += words;
            }
        }
        assert_eq!(got, 6);
        assert!(net.is_idle());
        // Both hops on the route carried all six words.
        let reports = net.link_reports();
        assert_eq!(reports[0].forwarded_words, 6);
        assert_eq!(reports[1].forwarded_words, 6);
    }

    #[test]
    fn return_headroom_shrinks_with_backlog() {
        let spec = RingSpec {
            intra_words_per_cycle: 0.25,
            inter_words_per_cycle: 0.25,
            intra_latency_cycles: 0,
            inter_latency_cycles: 0,
            egress_capacity_words: 10,
        };
        let mut net = RingNet::new(Layout::new(2, 1), &spec);
        assert_eq!(net.return_headroom(1), 10);
        net.offer_return(1, 8);
        assert_eq!(net.return_headroom(1), 2);
        assert_eq!(net.return_headroom(0), u64::MAX);
    }
}
