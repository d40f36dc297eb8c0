//! The recording collector: windowed time-series, span timeline, latency
//! histogram, and the [`TelemetrySummary`] derived from them.

use crate::{Collector, HbmChannelSample, InstantKind, SpanName, TileSample, Topology};

/// Routing latencies are histogrammed exactly up to this many cycles; the
/// final bucket absorbs everything beyond (the true maximum is tracked
/// separately).
const LATENCY_BUCKETS: usize = 4096;

/// One finished metrics window of one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileWindowRow {
    /// Window index (0-based).
    pub window: u64,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Tile index.
    pub tile: usize,
    /// The sampled activity.
    pub sample: TileSample,
}

/// One finished metrics window of one HBM pseudo-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbmWindowRow {
    /// Window index (0-based).
    pub window: u64,
    /// Tile owning the channel.
    pub tile: usize,
    /// Pseudo-channel index.
    pub channel: usize,
    /// The sampled activity.
    pub sample: HbmChannelSample,
}

/// One mesh link's traffic over one metrics window. Only links that moved
/// or refused traffic produce rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkWindowRow {
    /// Window index (0-based).
    pub window: u64,
    /// Source PE of the directed link.
    pub node: usize,
    /// Direction index (1..=4).
    pub dir: usize,
    /// Updates that crossed the link this window.
    pub traversals: u64,
    /// Cycles the link refused traffic this window.
    pub blocked: u64,
}

/// Event-core activity over one metrics window: unit-visits the
/// event-driven engine executed vs. proved idle and skipped. Only the
/// sparse engine produces rows (its dense reference visits every unit and
/// reports nothing), so these are mode *diagnostics* — deliberately kept
/// out of [`TelemetrySummary`], which stays bit-identical across the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventWindowRow {
    /// Window index (0-based).
    pub window: u64,
    /// Unit-visits executed this window.
    pub dispatched: u64,
    /// Unit-visits skipped this window (idle units plus whole-device
    /// skipped cycles).
    pub skipped: u64,
}

/// A recorded span (begin/end pair on the timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// What the span is.
    pub name: SpanName,
    /// Cycle the span opened.
    pub begin: u64,
    /// Cycle the span closed.
    pub end: u64,
}

/// The hottest (link, window) the recorder observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeakLink {
    /// Column of the source PE.
    pub x: usize,
    /// Global mesh row of the source PE.
    pub y: usize,
    /// Direction index (1..=4).
    pub dir: usize,
    /// Window index the peak occurred in.
    pub window: u64,
    /// Updates that crossed the link in that window.
    pub traversals: u64,
}

/// Aggregates distilled from a recording, cheap enough to attach to every
/// record of a parameter sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySummary {
    /// Metrics window length in cycles.
    pub window_cycles: u64,
    /// Windows recorded (including the final partial one).
    pub windows: u64,
    /// Total run length in cycles.
    pub run_cycles: u64,
    /// The hottest (link, window), if any link carried traffic.
    pub peak_link: Option<PeakLink>,
    /// Peak per-link utilization in updates/cycle (peak traversals divided
    /// by the window length).
    pub peak_link_utilization: f64,
    /// Total link traversals across all windows.
    pub total_link_traversals: u64,
    /// Median routing latency in cycles (0 when nothing was delivered).
    pub routing_latency_p50: u64,
    /// 95th-percentile routing latency in cycles.
    pub routing_latency_p95: u64,
    /// Maximum routing latency in cycles.
    pub routing_latency_max: u64,
    /// Cycles covered by a Scatter span with no Apply span active.
    pub scatter_only_cycles: u64,
    /// Cycles covered by an Apply span with no Scatter span active.
    pub apply_only_cycles: u64,
    /// Cycles where Scatter and Apply spans overlapped (inter-phase
    /// pipelining at work).
    pub overlap_cycles: u64,
    /// Off-chip bytes observed through the per-channel windows.
    pub offchip_bytes: u64,
    /// Fault/watchdog instants recorded.
    pub instants: u64,
}

impl std::fmt::Display for TelemetrySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "telemetry: {} windows of {} cycles over {} cycles",
            self.windows, self.window_cycles, self.run_cycles
        )?;
        match self.peak_link {
            Some(p) => writeln!(
                f,
                "  peak link        : ({},{}) {} in window {} — {} updates ({:.3}/cycle)",
                p.x,
                p.y,
                crate::DIR_NAMES[p.dir],
                p.window,
                p.traversals,
                self.peak_link_utilization
            )?,
            None => writeln!(f, "  peak link        : none (no NoC traffic)")?,
        }
        writeln!(
            f,
            "  routing latency  : p50 {} / p95 {} / max {} cycles",
            self.routing_latency_p50, self.routing_latency_p95, self.routing_latency_max
        )?;
        writeln!(
            f,
            "  phase breakdown  : scatter-only {} / apply-only {} / overlapped {} cycles",
            self.scatter_only_cycles, self.apply_only_cycles, self.overlap_cycles
        )?;
        writeln!(
            f,
            "  link traversals  : {} total",
            self.total_link_traversals
        )?;
        write!(
            f,
            "  off-chip traffic : {:.2} MB | fault/watchdog events: {}",
            self.offchip_bytes as f64 / 1e6,
            self.instants
        )
    }
}

/// The recording [`Collector`]: accumulates windowed metrics, spans, and
/// instants, and exports them (see the [`export`](crate::export) module and
/// the `write_*` methods).
#[derive(Debug, Clone)]
pub struct Recorder {
    pub(crate) topo: Topology,
    pub(crate) window: u64,
    window_start: u64,
    window_index: u64,
    end_cycle: u64,
    /// Current-window per-link traversal counts, `node * 4 + (dir - 1)`.
    cur_links: Vec<u64>,
    /// Current-window per-link back-pressure counts.
    cur_blocked: Vec<u64>,
    pub(crate) tile_rows: Vec<TileWindowRow>,
    pub(crate) hbm_rows: Vec<HbmWindowRow>,
    pub(crate) link_rows: Vec<LinkWindowRow>,
    pub(crate) spans: Vec<SpanRecord>,
    open_spans: Vec<(SpanName, u64)>,
    pub(crate) instants: Vec<(u64, InstantKind)>,
    event_rows: Vec<EventWindowRow>,
    latency_hist: Vec<u64>,
    latency_count: u64,
    latency_max: u64,
}

impl Recorder {
    /// A recorder sampling every `window` cycles (clamped to at least 1).
    pub fn new(window: u64) -> Self {
        Recorder {
            topo: Topology::default(),
            window: window.max(1),
            window_start: 0,
            window_index: 0,
            end_cycle: 0,
            cur_links: Vec::new(),
            cur_blocked: Vec::new(),
            tile_rows: Vec::new(),
            hbm_rows: Vec::new(),
            link_rows: Vec::new(),
            spans: Vec::new(),
            open_spans: Vec::new(),
            instants: Vec::new(),
            event_rows: Vec::new(),
            latency_hist: vec![0; LATENCY_BUCKETS],
            latency_count: 0,
            latency_max: 0,
        }
    }

    /// The machine geometry captured at run start.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The metrics window length in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window
    }

    /// Finished per-tile window rows, in (window, tile) order.
    pub fn tile_windows(&self) -> &[TileWindowRow] {
        &self.tile_rows
    }

    /// Finished per-channel window rows.
    pub fn hbm_windows(&self) -> &[HbmWindowRow] {
        &self.hbm_rows
    }

    /// Finished per-link window rows (links with activity only).
    pub fn link_windows(&self) -> &[LinkWindowRow] {
        &self.link_rows
    }

    /// Recorded spans. All spans are closed once
    /// [`on_run_end`](Collector::on_run_end) has run.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Recorded instants as `(cycle, kind)`.
    pub fn events(&self) -> &[(u64, InstantKind)] {
        &self.instants
    }

    /// The cycle the run ended at.
    pub fn run_cycles(&self) -> u64 {
        self.end_cycle
    }

    /// Event-core diagnostics per window (sparse runs only; empty in the
    /// dense reference). Windows where nothing was dispatched *or* skipped
    /// produce no row.
    pub fn event_windows(&self) -> &[EventWindowRow] {
        &self.event_rows
    }

    /// Total event-core unit-visits over the whole run, as
    /// `(dispatched, skipped)`. `(0, 0)` for dense runs.
    pub fn event_core_totals(&self) -> (u64, u64) {
        self.event_rows
            .iter()
            .fold((0, 0), |(d, s), r| (d + r.dispatched, s + r.skipped))
    }

    /// Fraction of unit-visits the event-driven run actually executed:
    /// `dispatched / (dispatched + skipped)`. `None` when no event-core
    /// rows were recorded (dense runs).
    pub fn event_busy_fraction(&self) -> Option<f64> {
        let (d, s) = self.event_core_totals();
        if d + s == 0 {
            None
        } else {
            Some(d as f64 / (d + s) as f64)
        }
    }

    fn flush_links(&mut self, window: u64) {
        for idx in 0..self.cur_links.len() {
            let (traversals, blocked) = (self.cur_links[idx], self.cur_blocked[idx]);
            if traversals == 0 && blocked == 0 {
                continue;
            }
            self.link_rows.push(LinkWindowRow {
                window,
                node: idx / 4,
                dir: idx % 4 + 1,
                traversals,
                blocked,
            });
            self.cur_links[idx] = 0;
            self.cur_blocked[idx] = 0;
        }
    }

    /// Routing-latency percentile from the histogram (`q` in `[0, 1]`).
    fn latency_percentile(&self, q: f64) -> u64 {
        if self.latency_count == 0 {
            return 0;
        }
        let rank = ((self.latency_count as f64 * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &n) in self.latency_hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The overflow bucket reports the observed maximum.
                return if bucket == LATENCY_BUCKETS - 1 {
                    self.latency_max
                } else {
                    bucket as u64
                };
            }
        }
        self.latency_max
    }

    /// Scatter/Apply overlap breakdown via an interval sweep over the span
    /// timeline.
    fn phase_breakdown(&self) -> (u64, u64, u64) {
        // Events: (cycle, track, +1/-1) for Scatter (track 2) and Apply
        // (track 3) spans.
        let mut edges: Vec<(u64, u64, i64)> = Vec::new();
        for s in &self.spans {
            let track = s.name.track();
            if track == 2 || track == 3 {
                edges.push((s.begin, track, 1));
                edges.push((s.end, track, -1));
            }
        }
        edges.sort_unstable();
        let (mut scatter, mut apply) = (0i64, 0i64);
        let (mut scatter_only, mut apply_only, mut overlap) = (0u64, 0u64, 0u64);
        let mut prev = 0u64;
        for (cycle, track, delta) in edges {
            let len = cycle.saturating_sub(prev);
            match (scatter > 0, apply > 0) {
                (true, true) => overlap += len,
                (true, false) => scatter_only += len,
                (false, true) => apply_only += len,
                (false, false) => {}
            }
            prev = cycle;
            if track == 2 {
                scatter += delta;
            } else {
                apply += delta;
            }
        }
        (scatter_only, apply_only, overlap)
    }

    /// Distills the recording into a [`TelemetrySummary`].
    pub fn summary(&self) -> TelemetrySummary {
        let peak = self
            .link_rows
            .iter()
            .max_by_key(|r| r.traversals)
            .filter(|r| r.traversals > 0);
        let peak_link = peak.map(|r| PeakLink {
            x: r.node % self.topo.cols.max(1),
            y: r.node / self.topo.cols.max(1),
            dir: r.dir,
            window: r.window,
            traversals: r.traversals,
        });
        let (scatter_only, apply_only, overlap) = self.phase_breakdown();
        TelemetrySummary {
            window_cycles: self.window,
            windows: self.window_index,
            run_cycles: self.end_cycle,
            peak_link,
            peak_link_utilization: peak
                .map(|r| r.traversals as f64 / self.window as f64)
                .unwrap_or(0.0),
            total_link_traversals: self.link_rows.iter().map(|r| r.traversals).sum(),
            routing_latency_p50: self.latency_percentile(0.50),
            routing_latency_p95: self.latency_percentile(0.95),
            routing_latency_max: self.latency_max,
            scatter_only_cycles: scatter_only,
            apply_only_cycles: apply_only,
            overlap_cycles: overlap,
            offchip_bytes: self.hbm_rows.iter().map(|r| r.sample.bytes).sum(),
            instants: self.instants.len() as u64,
        }
    }
}

impl Collector for Recorder {
    const ENABLED: bool = true;

    fn on_run_start(&mut self, topo: Topology) {
        self.topo = topo;
        let links = topo.num_nodes() * 4;
        self.cur_links = vec![0; links];
        self.cur_blocked = vec![0; links];
        self.window_start = 0;
        self.window_index = 0;
        self.spans.push(SpanRecord {
            name: SpanName::Run,
            begin: 0,
            end: 0,
        });
        // The Run span is re-closed at on_run_end; track it as open.
        self.spans.pop();
        self.open_spans.push((SpanName::Run, 0));
    }

    fn on_run_end(&mut self, now: u64) {
        self.end_cycle = now;
        // Close every open span so begin/end events always balance.
        while let Some((name, begin)) = self.open_spans.pop() {
            self.spans.push(SpanRecord {
                name,
                begin,
                end: now,
            });
        }
        self.spans.sort_by_key(|s| (s.begin, s.name.track()));
    }

    fn window_due(&self, now: u64) -> bool {
        now >= self.window_start + self.window
    }

    fn window_deadline(&self) -> Option<u64> {
        Some(self.window_start + self.window)
    }

    fn roll_window(&mut self, now: u64) {
        let window = self.window_index;
        self.flush_links(window);
        self.window_index += 1;
        // Re-anchor instead of adding `window` so a late roll (the final
        // partial window) does not generate phantom empty windows.
        self.window_start = now;
    }

    fn tile_sample(&mut self, tile: usize, sample: TileSample) {
        self.tile_rows.push(TileWindowRow {
            window: self.window_index,
            start_cycle: self.window_start,
            tile,
            sample,
        });
    }

    fn hbm_sample(&mut self, tile: usize, channel: usize, sample: HbmChannelSample) {
        self.hbm_rows.push(HbmWindowRow {
            window: self.window_index,
            tile,
            channel,
            sample,
        });
    }

    fn link_traversal(&mut self, node: usize, dir: usize, count: u64) {
        debug_assert!((1..=4).contains(&dir));
        let idx = node * 4 + (dir - 1);
        if let Some(slot) = self.cur_links.get_mut(idx) {
            *slot += count;
        }
    }

    fn link_backpressure(&mut self, node: usize, dir: usize) {
        let idx = node * 4 + (dir.saturating_sub(1));
        if let Some(slot) = self.cur_blocked.get_mut(idx) {
            *slot += 1;
        }
    }

    fn routing_latency(&mut self, cycles: u64) {
        let bucket = (cycles as usize).min(LATENCY_BUCKETS - 1);
        self.latency_hist[bucket] += 1;
        self.latency_count += 1;
        self.latency_max = self.latency_max.max(cycles);
    }

    fn span_begin(&mut self, now: u64, span: SpanName) {
        self.open_spans.push((span, now));
    }

    fn span_end(&mut self, now: u64, span: SpanName) {
        if let Some(pos) = self.open_spans.iter().rposition(|&(n, _)| n == span) {
            let (name, begin) = self.open_spans.remove(pos);
            self.spans.push(SpanRecord {
                name,
                begin,
                end: now,
            });
        }
    }

    fn instant(&mut self, now: u64, event: InstantKind) {
        self.instants.push((now, event));
    }

    fn event_core_sample(&mut self, dispatched: u64, skipped: u64) {
        if dispatched == 0 && skipped == 0 {
            return;
        }
        self.event_rows.push(EventWindowRow {
            window: self.window_index,
            dispatched,
            skipped,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DIR_EAST;

    fn topo22() -> Topology {
        Topology {
            tiles: 1,
            rows_per_tile: 2,
            cols: 2,
            channels_per_tile: 2,
            clock_mhz: 250.0,
        }
    }

    #[test]
    fn windows_roll_and_flush_links() {
        let mut r = Recorder::new(100);
        r.on_run_start(topo22());
        assert!(!r.window_due(99));
        assert!(r.window_due(100));
        r.link_traversal(1, DIR_EAST, 3);
        r.link_traversal(1, DIR_EAST, 2);
        r.roll_window(100);
        r.link_traversal(0, DIR_EAST, 1);
        r.roll_window(200);
        r.on_run_end(200);
        assert_eq!(r.link_windows().len(), 2);
        assert_eq!(r.link_windows()[0].traversals, 5);
        assert_eq!(r.link_windows()[0].window, 0);
        assert_eq!(r.link_windows()[1].window, 1);
    }

    #[test]
    fn spans_balance_even_when_left_open() {
        let mut r = Recorder::new(10);
        r.on_run_start(topo22());
        r.span_begin(0, SpanName::Iteration(0));
        r.span_begin(5, SpanName::Scatter { iter: 0, slice: 0 });
        r.span_end(20, SpanName::Iteration(0));
        // Scatter left open: on_run_end must close it (and the Run span).
        r.on_run_end(30);
        assert_eq!(r.spans().len(), 3);
        assert!(r.spans().iter().all(|s| s.end >= s.begin));
        let scatter = r
            .spans()
            .iter()
            .find(|s| matches!(s.name, SpanName::Scatter { .. }))
            .unwrap();
        assert_eq!(scatter.end, 30);
    }

    #[test]
    fn latency_percentiles() {
        let mut r = Recorder::new(10);
        r.on_run_start(topo22());
        for lat in 1..=100u64 {
            r.routing_latency(lat);
        }
        r.on_run_end(100);
        let s = r.summary();
        assert_eq!(s.routing_latency_p50, 50);
        assert_eq!(s.routing_latency_p95, 95);
        assert_eq!(s.routing_latency_max, 100);
        assert!(s.routing_latency_p50 <= s.routing_latency_p95);
    }

    #[test]
    fn latency_overflow_bucket_reports_max() {
        let mut r = Recorder::new(10);
        r.on_run_start(topo22());
        r.routing_latency(1_000_000);
        r.on_run_end(10);
        let s = r.summary();
        assert_eq!(s.routing_latency_p50, 1_000_000);
        assert_eq!(s.routing_latency_max, 1_000_000);
    }

    #[test]
    fn phase_breakdown_detects_overlap() {
        let mut r = Recorder::new(10);
        r.on_run_start(topo22());
        r.span_begin(0, SpanName::Scatter { iter: 0, slice: 0 });
        r.span_end(100, SpanName::Scatter { iter: 0, slice: 0 });
        r.span_begin(60, SpanName::Apply(0));
        r.span_end(150, SpanName::Apply(0));
        r.on_run_end(150);
        let s = r.summary();
        assert_eq!(s.scatter_only_cycles, 60);
        assert_eq!(s.overlap_cycles, 40);
        assert_eq!(s.apply_only_cycles, 50);
    }

    #[test]
    fn event_core_rows_stay_out_of_the_summary() {
        let mut r = Recorder::new(100);
        r.on_run_start(topo22());
        let mut quiet = r.clone();
        r.event_core_sample(40, 360);
        r.roll_window(100);
        r.event_core_sample(0, 0); // empty window: no row
        r.roll_window(200);
        r.event_core_sample(10, 90);
        r.on_run_end(250);
        quiet.roll_window(100);
        quiet.roll_window(200);
        quiet.on_run_end(250);
        assert_eq!(r.event_windows().len(), 2);
        assert_eq!(r.event_windows()[0].window, 0);
        assert_eq!(r.event_windows()[1].window, 2);
        assert_eq!(r.event_core_totals(), (50, 450));
        assert!((r.event_busy_fraction().unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(quiet.event_busy_fraction(), None);
        // The diagnostics must not leak into the compared summary.
        assert_eq!(r.summary(), quiet.summary());
    }

    #[test]
    fn summary_peak_link_has_coordinates() {
        let mut r = Recorder::new(50);
        r.on_run_start(topo22());
        r.link_traversal(3, DIR_EAST, 7);
        r.roll_window(50);
        r.on_run_end(50);
        let s = r.summary();
        let p = s.peak_link.unwrap();
        assert_eq!((p.x, p.y, p.dir, p.traversals), (1, 1, DIR_EAST, 7));
        assert!((s.peak_link_utilization - 7.0 / 50.0).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("peak link"), "{text}");
    }
}
