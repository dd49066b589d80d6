//! The memory system: cores' L1s, private L2s, an optional shared L3, and
//! the memory controller, connected by latency-modeled links.
//!
//! The topology mirrors XiangShan's (Table II): per-core L1I/L1D under a
//! private L2; NH adds a shared L3 between the L2s and DRAM, YQH connects
//! its (single) L2 directly to DRAM.

use crate::cache::{Cache, CacheConfig, CacheStats, Outbox};
use crate::dram::{DramModel, DramStats};
use crate::hist::Hist;
use crate::msg::{
    line_of, AccessKind, Completion, CoreReq, Msg, MsgKind, Node, Perm, LINE_SIZE,
};
use crate::scoreboard::CoherenceScoreboard;
use riscv_isa::mem::{PhysMem, SparseMemory};
use std::collections::{BinaryHeap, HashMap};

/// Per-link message latencies in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkLatencies {
    /// L1 <-> L2.
    pub l1_l2: u64,
    /// L2 <-> L3.
    pub l2_l3: u64,
    /// Last-level cache <-> memory controller.
    pub llc_dram: u64,
}

impl Default for LinkLatencies {
    fn default() -> Self {
        LinkLatencies {
            l1_l2: 3,
            l2_l3: 6,
            llc_dram: 10,
        }
    }
}

/// Memory-system configuration.
#[derive(Debug, Clone)]
pub struct MemSystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// L1 instruction cache template (instantiated per core).
    pub l1i: CacheConfig,
    /// L1 data cache template.
    pub l1d: CacheConfig,
    /// Private L2 template.
    pub l2: CacheConfig,
    /// Shared L3 (None for the YQH generation).
    pub l3: Option<CacheConfig>,
    /// Link latencies.
    pub links: LinkLatencies,
    /// Enable the coherence scoreboard checker.
    pub scoreboard: bool,
    /// Record per-request latency histograms (telemetry; small per-access
    /// bookkeeping cost, so off by default).
    pub telemetry: bool,
}

impl MemSystemConfig {
    /// A small configuration for unit tests.
    pub fn tiny(cores: usize) -> Self {
        MemSystemConfig {
            cores,
            l1i: CacheConfig::new("l1i", 4096, 2, 1, 4),
            l1d: CacheConfig::new("l1d", 4096, 2, 1, 4),
            l2: CacheConfig::new("l2", 16384, 4, 4, 8),
            l3: Some(CacheConfig::new("l3", 65536, 4, 10, 16)),
            links: LinkLatencies {
                l1_l2: 1,
                l2_l3: 2,
                llc_dram: 3,
            },
            scoreboard: true,
            telemetry: false,
        }
    }
}

/// Round-trip latency histograms for the memory hierarchy, as seen from
/// the request side (submit-to-completion), plus the controller's own
/// service latency. Populated only when [`MemSystemConfig::telemetry`]
/// is set.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemLatencyHists {
    /// Data/fetch requests that hit in the L1.
    pub l1_hit: Hist,
    /// Data/fetch requests that missed the L1 (any deeper level served).
    pub l1_miss: Hist,
    /// Memory-controller service latency per line access.
    pub dram: Hist,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TimedCompletion(Completion);

impl PartialOrd for TimedCompletion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimedCompletion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.at.cmp(&self.0.at) // min-heap on completion time
    }
}

/// The whole coherent memory system below the cores.
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MemSystemConfig,
    cycle: u64,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Option<Cache>,
    wheel: BinaryHeap<Msg>,
    done: BinaryHeap<TimedCompletion>,
    dram: DramModel,
    backing: SparseMemory,
    /// Coherence scoreboard (present when enabled in the config).
    pub scoreboard: Option<CoherenceScoreboard>,
    /// Submit cycle of in-flight requests, keyed by (is_fetch, core, id).
    /// Only populated when telemetry is enabled.
    inflight_since: HashMap<(bool, usize, u64), u64>,
    lat: MemLatencyHists,
}

impl MemSystem {
    /// Build a memory system over a backing physical memory.
    pub fn new(cfg: MemSystemConfig, dram: DramModel, backing: SparseMemory) -> Self {
        let mut l1i = Vec::new();
        let mut l1d = Vec::new();
        let mut l2 = Vec::new();
        let llc_parent = Node::Dram;
        let l3 = cfg.l3.as_ref().map(|c3| {
            let children = (0..cfg.cores).map(Node::L2).collect();
            let mut c = c3.clone();
            c.name = "l3".into();
            Cache::new(c, Node::L3, llc_parent, children)
        });
        for core in 0..cfg.cores {
            let mut ci = cfg.l1i.clone();
            ci.name = format!("l1i{core}");
            let mut cd = cfg.l1d.clone();
            cd.name = format!("l1d{core}");
            let mut c2 = cfg.l2.clone();
            c2.name = format!("l2_{core}");
            l1i.push(Cache::new(ci, Node::L1i(core), Node::L2(core), vec![]));
            l1d.push(Cache::new(cd, Node::L1d(core), Node::L2(core), vec![]));
            let l2_parent = if l3.is_some() { Node::L3 } else { Node::Dram };
            l2.push(Cache::new(
                c2,
                Node::L2(core),
                l2_parent,
                vec![Node::L1i(core), Node::L1d(core)],
            ));
        }
        let scoreboard = cfg.scoreboard.then(|| {
            let mut parents = HashMap::new();
            for core in 0..cfg.cores {
                parents.insert(Node::L1i(core), Node::L2(core));
                parents.insert(Node::L1d(core), Node::L2(core));
                parents.insert(
                    Node::L2(core),
                    if cfg.l3.is_some() { Node::L3 } else { Node::Dram },
                );
            }
            if cfg.l3.is_some() {
                parents.insert(Node::L3, Node::Dram);
            }
            CoherenceScoreboard::new(parents)
        });
        MemSystem {
            cfg,
            cycle: 0,
            l1i,
            l1d,
            l2,
            l3,
            wheel: BinaryHeap::new(),
            done: BinaryHeap::new(),
            dram,
            backing,
            scoreboard,
            inflight_since: HashMap::new(),
            lat: MemLatencyHists::default(),
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The earliest future cycle at which anything in the hierarchy acts:
    /// the next in-flight message delivery or core-visible completion.
    /// `None` when the memory system is fully quiescent.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let wheel = self.wheel.peek().map(|m| m.at);
        let done = self.done.peek().map(|c| c.0.at);
        match (wheel, done) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advance the clock by `n` cycles with no deliveries. Only sound when
    /// the caller has proven nothing is due in `(cycle, cycle + n]` — i.e.
    /// `next_event_cycle()` is `None` or `> cycle + n`.
    pub fn advance_idle(&mut self, n: u64) {
        debug_assert!(self.next_event_cycle().is_none_or(|e| e > self.cycle + n));
        self.cycle += n;
    }

    /// Submit a data-side request for `core`. Returns false when the L1D
    /// cannot accept it this cycle (retry later).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a cache line.
    pub fn submit_data(&mut self, req: CoreReq) -> bool {
        let key = (false, req.core, req.id);
        let mut out = Outbox::default();
        let ok = self.l1d[req.core].submit_core(req, self.cycle, &mut out);
        self.route_outbox(Node::L1d(req.core), out);
        if ok && self.cfg.telemetry {
            self.inflight_since.insert(key, self.cycle);
        }
        ok
    }

    /// Submit an instruction fetch (32-byte block at `addr`).
    pub fn submit_fetch(&mut self, core: usize, addr: u64, id: u64) -> bool {
        let req = CoreReq {
            core,
            kind: AccessKind::Fetch,
            addr,
            size: 32,
            data: 0,
            id,
        };
        let mut out = Outbox::default();
        let ok = self.l1i[core].submit_core(req, self.cycle, &mut out);
        self.route_outbox(Node::L1i(core), out);
        if ok && self.cfg.telemetry {
            self.inflight_since.insert((true, core, id), self.cycle);
        }
        ok
    }

    /// Advance one cycle; returns the completions due this cycle.
    pub fn tick(&mut self) -> Vec<Completion> {
        self.cycle += 1;
        // Deliver all messages due now.
        while let Some(top) = self.wheel.peek() {
            if top.at > self.cycle {
                break;
            }
            let msg = self.wheel.pop().expect("peeked");
            if let Some(sb) = &mut self.scoreboard {
                sb.observe(&msg);
            }
            self.deliver(msg);
        }
        // Collect due completions.
        let mut out = Vec::new();
        while let Some(top) = self.done.peek() {
            if top.0.at > self.cycle {
                break;
            }
            let c = self.done.pop().expect("peeked").0;
            if self.cfg.telemetry {
                let key = (c.req.kind == AccessKind::Fetch, c.req.core, c.req.id);
                if let Some(since) = self.inflight_since.remove(&key) {
                    let rtt = c.at.saturating_sub(since);
                    if c.l1_hit {
                        self.lat.l1_hit.record(rtt);
                    } else {
                        self.lat.l1_miss.record(rtt);
                    }
                }
            }
            out.push(c);
        }
        out
    }

    fn deliver(&mut self, msg: Msg) {
        match msg.dst {
            Node::Dram => self.deliver_dram(msg),
            node => {
                let mut out = Outbox::default();
                let now = self.cycle;
                let cache = self.cache_mut(node);
                cache.handle(msg.src, msg.kind, now, &mut out);
                self.route_outbox(node, out);
            }
        }
    }

    fn deliver_dram(&mut self, msg: Msg) {
        match msg.kind {
            MsgKind::Acquire { line, need: _ } => {
                let latency = self.dram.access(line, self.cycle);
                if self.cfg.telemetry {
                    self.lat.dram.record(latency);
                }
                let mut data = Box::new([0u8; LINE_SIZE as usize]);
                self.backing.read(line, &mut data[..]);
                self.schedule(
                    Node::Dram,
                    msg.src,
                    MsgKind::Grant {
                        line,
                        perm: Perm::Trunk,
                        data: Some(data),
                    },
                    latency + self.cfg.links.llc_dram,
                );
            }
            MsgKind::Release { line, data } => {
                if let Some(d) = data {
                    self.backing.write(line, &d[..]);
                }
                self.schedule(
                    Node::Dram,
                    msg.src,
                    MsgKind::ReleaseAck { line },
                    self.cfg.links.llc_dram,
                );
            }
            MsgKind::GrantAck { .. } => {
                // The controller has no probes, so no serialization needed.
            }
            other => panic!("memory controller cannot handle {other:?}"),
        }
    }

    fn cache_mut(&mut self, node: Node) -> &mut Cache {
        match node {
            Node::L1i(c) => &mut self.l1i[c],
            Node::L1d(c) => &mut self.l1d[c],
            Node::L2(c) => &mut self.l2[c],
            Node::L3 => self.l3.as_mut().expect("no L3 in this configuration"),
            n => panic!("{n:?} is not a cache"),
        }
    }

    fn link_latency(&self, a: Node, b: Node) -> u64 {
        use Node::*;
        match (a, b) {
            (L1i(_) | L1d(_), L2(_)) | (L2(_), L1i(_) | L1d(_)) => self.cfg.links.l1_l2,
            (L2(_), L3) | (L3, L2(_)) => self.cfg.links.l2_l3,
            (L3, Dram) | (Dram, L3) | (L2(_), Dram) | (Dram, L2(_)) => self.cfg.links.llc_dram,
            (x, y) => panic!("no link between {x:?} and {y:?}"),
        }
    }

    fn schedule(&mut self, src: Node, dst: Node, kind: MsgKind, latency: u64) {
        self.wheel.push(Msg {
            at: self.cycle + latency.max(1),
            src,
            dst,
            kind,
        });
    }

    fn route_outbox(&mut self, from: Node, out: Outbox) {
        for (dst, kind) in out.msgs {
            let latency = self.link_latency(from, dst);
            self.schedule(from, dst, kind, latency);
        }
        for c in out.completions {
            self.done.push(TimedCompletion(c));
        }
    }

    // ------------------------------------------------------------------
    // Functional access (program loading, DiffTest global memory).
    // ------------------------------------------------------------------

    /// Read bytes with full coherence: the freshest dirty copy anywhere in
    /// the hierarchy wins. Used by the DiffTest global-memory diff-rule.
    pub fn coherent_read(&mut self, addr: u64, size: u64) -> u64 {
        let line = line_of(addr);
        let off = (addr - line) as usize;
        let grab = |data: &crate::msg::LineData| {
            let mut buf = [0u8; 8];
            buf[..size as usize].copy_from_slice(&data[off..off + size as usize]);
            u64::from_le_bytes(buf)
        };
        // Freshest first: L1D dirty, L2 dirty, L3 dirty, backing memory.
        for c in &self.l1d {
            if let Some((d, dirty, _)) = c.peek_line(line) {
                if dirty {
                    return grab(d);
                }
            }
        }
        for c in &self.l2 {
            if let Some((d, dirty, _)) = c.peek_line(line) {
                if dirty {
                    return grab(d);
                }
            }
        }
        if let Some(c) = &self.l3 {
            if let Some((d, dirty, _)) = c.peek_line(line) {
                if dirty {
                    return grab(d);
                }
            }
        }
        self.backing.read_uint(addr, size)
    }

    /// Direct backing-memory access (program loading before boot).
    pub fn backing_mut(&mut self) -> &mut SparseMemory {
        &mut self.backing
    }

    /// Immutable backing-memory view (snapshot serialization).
    pub fn backing(&self) -> &SparseMemory {
        &self.backing
    }

    /// Eagerly serialize the full memory-system state: backing memory plus
    /// every cache array — the SSS baseline snapshot of paper §III-C2.
    pub fn serialize_full_state(&self) -> Vec<u8> {
        let mut out = self.backing.serialize_full();
        for c in self
            .l1i
            .iter()
            .chain(&self.l1d)
            .chain(&self.l2)
            .chain(self.l3.iter())
        {
            c.dump_state(&mut out);
        }
        out
    }

    /// Invalidate all (clean) lines of a core's L1I — `fence.i`.
    pub fn flush_l1i(&mut self, core: usize) {
        self.l1i[core].invalidate_all_clean();
    }

    /// Statistics of each level, keyed by cache name.
    pub fn stats(&self) -> Vec<(String, CacheStats)> {
        let mut v: Vec<(String, CacheStats)> = Vec::new();
        for c in self.l1i.iter().chain(&self.l1d).chain(&self.l2) {
            v.push((c.cfg.name.clone(), c.stats));
        }
        if let Some(c) = &self.l3 {
            v.push((c.cfg.name.clone(), c.stats));
        }
        v
    }

    /// Memory-controller statistics.
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// Round-trip / service latency histograms (empty unless the config
    /// enables telemetry).
    pub fn latency_hists(&self) -> &MemLatencyHists {
        &self.lat
    }

    /// In-flight transaction count of core `core`'s L1D (MSHR occupancy
    /// proxy, sampled per cycle by the core's telemetry).
    pub fn l1d_active_txns(&self, core: usize) -> usize {
        self.l1d[core].active_txns()
    }

    /// Enable the §IV-C probe/grant race fault in core `core`'s L2.
    pub fn inject_l2_race_bug(&mut self, core: usize) {
        self.l2[core].cfg.inject_probe_grant_race = true;
    }

    /// True when nothing is in flight anywhere in the hierarchy.
    pub fn quiescent(&self) -> bool {
        self.wheel.is_empty()
            && self.done.is_empty()
            && self
                .l1i
                .iter()
                .chain(&self.l1d)
                .chain(&self.l2)
                .chain(self.l3.iter())
                .all(|c| c.active_txns() == 0)
    }
}

/// Drive the system until a specific request id completes (test helper).
pub fn run_until_complete(sys: &mut MemSystem, id: u64, max_cycles: u64) -> Option<Completion> {
    for _ in 0..max_cycles {
        for c in sys.tick() {
            if c.req.id == id {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_req(core: usize, addr: u64, id: u64) -> CoreReq {
        CoreReq {
            core,
            kind: AccessKind::Load,
            addr,
            size: 8,
            data: 0,
            id,
        }
    }

    fn store_req(core: usize, addr: u64, data: u64, id: u64) -> CoreReq {
        CoreReq {
            core,
            kind: AccessKind::Store,
            addr,
            size: 8,
            data,
            id,
        }
    }

    fn new_sys(cores: usize) -> MemSystem {
        let mut backing = SparseMemory::new();
        backing.write_uint(0x1000, 8, 0xabcd_ef01_2345_6789);
        MemSystem::new(MemSystemConfig::tiny(cores), DramModel::fixed(20), backing)
    }

    #[test]
    fn load_through_hierarchy() {
        let mut sys = new_sys(1);
        assert!(sys.submit_data(load_req(0, 0x1000, 1)));
        let c = run_until_complete(&mut sys, 1, 1000).expect("completes");
        assert_eq!(c.data, 0xabcd_ef01_2345_6789);
        assert!(!c.l1_hit, "first access must miss");
        // Second access to the same line hits in L1.
        assert!(sys.submit_data(load_req(0, 0x1008, 2)));
        let c2 = run_until_complete(&mut sys, 2, 1000).expect("completes");
        assert!(c2.l1_hit);
        assert!(c2.at - sys_first_latency_floor() <= c.at, "hit is faster");
        assert!(sys.scoreboard.as_ref().unwrap().clean());
    }

    fn sys_first_latency_floor() -> u64 {
        1
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut sys = new_sys(1);
        assert!(sys.submit_data(store_req(0, 0x2000, 42, 1)));
        run_until_complete(&mut sys, 1, 1000).expect("store completes");
        assert!(sys.submit_data(load_req(0, 0x2000, 2)));
        let c = run_until_complete(&mut sys, 2, 1000).expect("load completes");
        assert_eq!(c.data, 42);
        assert_eq!(sys.coherent_read(0x2000, 8), 42);
        // Backing memory still stale until eviction — that's the point of
        // the coherent read.
        assert_eq!(sys.backing_mut().read_uint(0x2000, 8), 0);
    }

    #[test]
    fn latency_ordering_l1_l2_dram() {
        let mut sys = new_sys(1);
        // DRAM fill.
        sys.submit_data(load_req(0, 0x1000, 1));
        let dram_fill = run_until_complete(&mut sys, 1, 1000).unwrap();
        let t0 = sys.cycle();
        // L1 hit.
        sys.submit_data(load_req(0, 0x1000, 2));
        let l1_hit = run_until_complete(&mut sys, 2, 1000).unwrap();
        let dram_latency = dram_fill.at;
        let l1_latency = l1_hit.at - t0;
        assert!(
            l1_latency < dram_latency / 3,
            "l1 {l1_latency} vs dram {dram_latency}"
        );
    }

    #[test]
    fn eviction_writes_back_through_levels() {
        let mut sys = new_sys(1);
        // Write enough distinct lines mapping to the same L1 set to force
        // evictions through L2 and beyond (L1: 4 KiB, 2 ways, 32 sets).
        let mut id = 1;
        for i in 0..64u64 {
            let addr = 0x10_0000 + i * 4096; // same set every time
            assert!(sys.submit_data(store_req(0, addr, i + 1, id)));
            run_until_complete(&mut sys, id, 5000).expect("store completes");
            id += 1;
        }
        // All values must be recoverable.
        for i in 0..64u64 {
            let addr = 0x10_0000 + i * 4096;
            assert_eq!(sys.coherent_read(addr, 8), i + 1, "line {i}");
        }
        assert!(sys.scoreboard.as_ref().unwrap().clean());
        let stats = sys.stats();
        let l1d = &stats.iter().find(|(n, _)| n == "l1d0").unwrap().1;
        assert!(l1d.evictions > 0, "L1D must have evicted");
    }

    #[test]
    fn fetch_path_returns_block() {
        let mut sys = new_sys(1);
        for i in 0..8u64 {
            sys.backing_mut().write_uint(0x8000_0000 + i * 4, 4, i);
        }
        assert!(sys.submit_fetch(0, 0x8000_0000, 7));
        let c = run_until_complete(&mut sys, 7, 1000).expect("fetch completes");
        let block = c.fetch_block.expect("fetch returns block");
        assert_eq!(u32::from_le_bytes(block[0..4].try_into().unwrap()), 0);
        assert_eq!(u32::from_le_bytes(block[28..32].try_into().unwrap()), 7);
    }

    #[test]
    fn dual_core_coherence() {
        let mut sys = new_sys(2);
        // Core 0 writes, core 1 reads the same line.
        assert!(sys.submit_data(store_req(0, 0x3000, 1234, 1)));
        run_until_complete(&mut sys, 1, 2000).expect("store");
        assert!(sys.submit_data(load_req(1, 0x3000, 2)));
        let c = run_until_complete(&mut sys, 2, 2000).expect("load");
        assert_eq!(c.data, 1234, "core 1 must see core 0's store");
        // And back: core 1 writes, core 0 reads.
        assert!(sys.submit_data(store_req(1, 0x3000, 5678, 3)));
        run_until_complete(&mut sys, 3, 2000).expect("store");
        assert!(sys.submit_data(load_req(0, 0x3000, 4)));
        let c = run_until_complete(&mut sys, 4, 2000).expect("load");
        assert_eq!(c.data, 5678);
        assert!(sys.scoreboard.as_ref().unwrap().clean(), "{:?}", sys.scoreboard.as_ref().unwrap().violations);
    }

    #[test]
    fn ping_pong_many_rounds_stays_coherent() {
        let mut sys = new_sys(2);
        let mut id = 1;
        let mut expected = 0u64;
        for round in 0..50u64 {
            let writer = (round % 2) as usize;
            expected = round + 1000;
            assert!(sys.submit_data(store_req(writer, 0x4000, expected, id)));
            run_until_complete(&mut sys, id, 5000).expect("store");
            id += 1;
            let reader = 1 - writer;
            assert!(sys.submit_data(load_req(reader, 0x4000, id)));
            let c = run_until_complete(&mut sys, id, 5000).expect("load");
            assert_eq!(c.data, expected, "round {round}");
            id += 1;
        }
        assert_eq!(sys.coherent_read(0x4000, 8), expected);
        assert!(sys.scoreboard.as_ref().unwrap().clean());
    }

    /// Drive concurrent same-line stores from both cores, then check that
    /// (a) both cores agree on the stored dword and (b) the *untouched*
    /// neighboring dword of the same line keeps its sentinel value.
    /// Returns true when wrong data was observed — the signature of the
    /// injected Probe/GrantData corruption.
    fn race_rounds(sys: &mut MemSystem, rounds: u64) -> bool {
        const SENTINEL: u64 = 0xaaaa_5555_aaaa_5555;
        sys.backing_mut().write_uint(0x5008, 8, SENTINEL);
        let mut id = 1;
        for round in 0..rounds {
            // Both cores store concurrently — this creates the
            // Probe/GrantData overlap window at the L2s.
            let v0 = round * 2 + 1;
            let v1 = round * 2 + 2;
            sys.submit_data(store_req(0, 0x5000, v0, id));
            sys.submit_data(store_req(1, 0x5000, v1, id + 1));
            id += 2;
            for _ in 0..400 {
                sys.tick();
            }
            sys.submit_data(load_req(0, 0x5000, id));
            let c0 = run_until_complete(sys, id, 5000).expect("load 0");
            sys.submit_data(load_req(1, 0x5000, id + 1));
            let c1 = run_until_complete(sys, id + 1, 5000).expect("load 1");
            sys.submit_data(load_req(0, 0x5008, id + 2));
            let s0 = run_until_complete(sys, id + 2, 5000).expect("sentinel load");
            id += 3;
            if c0.data != c1.data || (c0.data != v0 && c0.data != v1) || s0.data != SENTINEL {
                return true;
            }
        }
        false
    }

    #[test]
    fn concurrent_stores_stay_coherent_without_bug() {
        let mut sys = new_sys(2);
        assert!(!race_rounds(&mut sys, 25), "no wrong data expected");
        assert!(
            sys.scoreboard.as_ref().unwrap().clean(),
            "{:?}",
            sys.scoreboard.as_ref().unwrap().violations
        );
    }

    #[test]
    fn injected_probe_grant_race_breaks_coherence() {
        let mut sys = new_sys(2);
        sys.inject_l2_race_bug(0);
        let wrong_data = race_rounds(&mut sys, 25);
        assert!(
            wrong_data,
            "the injected race must produce observable wrong data"
        );
    }

    #[test]
    fn telemetry_latency_hists_populate() {
        let mut backing = SparseMemory::new();
        backing.write_uint(0x1000, 8, 7);
        let mut cfg = MemSystemConfig::tiny(1);
        cfg.telemetry = true;
        let mut sys = MemSystem::new(cfg, DramModel::fixed(20), backing);
        sys.submit_data(load_req(0, 0x1000, 1));
        run_until_complete(&mut sys, 1, 1000).expect("miss completes");
        sys.submit_data(load_req(0, 0x1008, 2));
        run_until_complete(&mut sys, 2, 1000).expect("hit completes");
        let lat = sys.latency_hists();
        assert_eq!(lat.l1_miss.samples, 1);
        assert_eq!(lat.l1_hit.samples, 1);
        assert!(lat.l1_miss.max > lat.l1_hit.max, "miss slower than hit");
        assert_eq!(lat.dram.samples, 1);
        assert_eq!(sys.dram_stats().accesses, 1);
    }

    #[test]
    fn telemetry_off_records_nothing() {
        let mut sys = new_sys(1);
        sys.submit_data(load_req(0, 0x1000, 1));
        run_until_complete(&mut sys, 1, 1000).expect("completes");
        assert!(sys.latency_hists().l1_hit.is_empty());
        assert!(sys.latency_hists().l1_miss.is_empty());
        assert!(sys.latency_hists().dram.is_empty());
        // DRAM access counting is always on (cheap, needed by RunStats).
        assert_eq!(sys.dram_stats().accesses, 1);
    }

    #[test]
    fn mshr_stalls_count_rejections() {
        let mut sys = new_sys(1);
        for i in 0..6u64 {
            sys.submit_data(load_req(0, 0xa000 + i * 64, 300 + i));
        }
        let stats = sys.stats();
        let l1d = &stats.iter().find(|(n, _)| n == "l1d0").unwrap().1;
        assert_eq!(l1d.mshr_stalls, 2, "2 of 6 distinct-line misses rejected");
    }

    #[test]
    fn mshr_backpressure() {
        let mut sys = new_sys(1);
        // 4 MSHRs in the tiny config: the fifth distinct-line miss must be
        // rejected in the same cycle.
        let mut accepted = 0;
        for i in 0..6u64 {
            if sys.submit_data(load_req(0, 0x9000 + i * 64, 100 + i)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4, "MSHR limit must backpressure");
        // They all eventually complete after draining.
        for _ in 0..2000 {
            sys.tick();
        }
        assert!(sys.quiescent());
    }
}
