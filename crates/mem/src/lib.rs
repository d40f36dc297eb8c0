//! Off-chip memory models for the ScalaGraph reproduction.
//!
//! The Alveo U280 card the paper targets carries two 4 GB HBM2 stacks with
//! 460 GB/s aggregate bandwidth, exposed as 32 pseudo-channels; each
//! prefetcher in ScalaGraph "connects to a pseudo channel of HBM to achieve
//! high memory-level parallelism" (Section III-A). This crate models that
//! memory at request granularity: per-pseudo-channel queues with a byte-rate
//! service budget and a fixed latency pipe, which is the level of detail the
//! paper's throughput arguments operate at (bandwidth × line size ×
//! frequency, Section I).
//!
//! # Example
//!
//! ```
//! use scalagraph_mem::{Hbm, HbmConfig, MemRequest};
//!
//! let mut hbm = Hbm::new(HbmConfig::u280(250_000_000.0));
//! assert!(hbm.try_request(0, MemRequest::read(42, 64)));
//! let mut done = None;
//! for _ in 0..1000 {
//!     hbm.step();
//!     if let Some(r) = hbm.pop_ready(0) {
//!         done = Some(r);
//!         break;
//!     }
//! }
//! assert_eq!(done.unwrap().tag, 42);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;

/// One off-chip memory request. The `tag` is opaque to the memory model;
/// simulators use it to route the response back to the issuing unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-owned identifier returned unchanged with the response.
    pub tag: u64,
    /// Transfer size in bytes (usually one 64-byte line).
    pub bytes: u32,
    /// Whether this is a write (writes consume bandwidth but produce no
    /// response data; they still complete through the latency pipe so
    /// write-backs can be ordered).
    pub write: bool,
}

impl MemRequest {
    /// A read of `bytes` bytes tagged `tag`.
    pub fn read(tag: u64, bytes: u32) -> Self {
        MemRequest {
            tag,
            bytes,
            write: false,
        }
    }

    /// A write of `bytes` bytes tagged `tag`.
    pub fn write(tag: u64, bytes: u32) -> Self {
        MemRequest {
            tag,
            bytes,
            write: true,
        }
    }
}

/// Configuration of an off-chip memory device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Number of independent pseudo-channels.
    pub channels: usize,
    /// Service rate per channel, in bytes per accelerator cycle.
    pub bytes_per_cycle_per_channel: f64,
    /// Access latency in accelerator cycles (queueing excluded).
    pub latency_cycles: u32,
    /// Maximum outstanding requests per channel; `try_request` fails beyond
    /// this depth, modelling finite AXI outstanding-transaction budgets.
    pub queue_depth: usize,
    /// Maximum extra latency, in cycles, added per request (uniform,
    /// deterministic per seed). Real HBM latency varies with bank state and
    /// refresh; simulators must produce identical *results* regardless —
    /// the timing-independence property tests exercise this knob.
    pub latency_jitter: u32,
}

impl HbmConfig {
    /// Returns this configuration with latency jitter up to `jitter`
    /// cycles.
    pub fn with_jitter(self, jitter: u32) -> Self {
        HbmConfig {
            latency_jitter: jitter,
            ..self
        }
    }
}

impl HbmConfig {
    /// The U280's two HBM2 stacks: 32 pseudo-channels, 460 GB/s aggregate,
    /// ~128 ns access latency. `clock_hz` is the accelerator clock the
    /// byte-rate is expressed against (the paper uses 250 MHz).
    pub fn u280(clock_hz: f64) -> Self {
        Self::from_bandwidth(460.0e9, 32, clock_hz)
    }

    /// A single U280 HBM stack (one ScalaGraph tile's private stack):
    /// 16 pseudo-channels, 230 GB/s.
    pub fn u280_stack(clock_hz: f64) -> Self {
        Self::from_bandwidth(230.0e9, 16, clock_hz)
    }

    /// An idealized memory with effectively unlimited bandwidth, used by the
    /// >1,024-PE scalability study (Section V-E: "a cycle-accurate simulator
    /// > ... with sufficient off-chip bandwidth").
    pub fn unlimited(channels: usize) -> Self {
        HbmConfig {
            channels,
            bytes_per_cycle_per_channel: 1.0e9,
            latency_cycles: 32,
            queue_depth: usize::MAX / 2,
            latency_jitter: 0,
        }
    }

    /// Builds a config from an aggregate bandwidth in bytes/second split
    /// evenly over `channels`, relative to `clock_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `clock_hz <= 0`.
    pub fn from_bandwidth(bytes_per_second: f64, channels: usize, clock_hz: f64) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert!(clock_hz > 0.0, "clock must be positive");
        HbmConfig {
            channels,
            bytes_per_cycle_per_channel: bytes_per_second / channels as f64 / clock_hz,
            latency_cycles: (128e-9 * clock_hz).round() as u32,
            // Cover the latency-bandwidth product (~0.9 lines/cycle * 32
            // cycles = 29 outstanding) with headroom, as HBM AXI masters
            // are provisioned in practice.
            queue_depth: 64,
            latency_jitter: 0,
        }
    }

    /// Aggregate bandwidth in bytes per cycle.
    pub fn total_bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle_per_channel * self.channels as f64
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Channel {
    pending: VecDeque<MemRequest>,
    in_flight: VecDeque<(u64, MemRequest)>, // (ready_cycle, request)
    ready: VecDeque<MemRequest>,
    credit: f64,
}

/// Cumulative traffic statistics of a memory device.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Bytes read (serviced).
    pub bytes_read: u64,
    /// Bytes written (serviced).
    pub bytes_written: u64,
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests serviced.
    pub writes: u64,
    /// Cycles in which at least one channel serviced data.
    pub busy_cycles: u64,
    /// Total cycles stepped.
    pub cycles: u64,
}

/// Cumulative per-pseudo-channel traffic counters, for time- and
/// location-resolved telemetry (the device-wide [`MemStats`] cannot say
/// *which* channel ran hot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelTelemetry {
    /// Bytes serviced (reads + writes).
    pub bytes: u64,
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests serviced.
    pub writes: u64,
    /// Cycles spent pinned by an injected stall.
    pub stall_cycles: u64,
}

impl MemStats {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Achieved bandwidth as a fraction of the configured peak.
    pub fn utilization(&self, config: &HbmConfig) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / (self.cycles as f64 * config.total_bytes_per_cycle())
        }
    }
}

/// A clocked multi-pseudo-channel memory device.
///
/// Per cycle, each channel accrues `bytes_per_cycle_per_channel` of service
/// credit; queued requests are drained in order as credit allows, then
/// complete `latency_cycles` later.
#[derive(Debug, Clone, PartialEq)]
pub struct Hbm {
    config: HbmConfig,
    channels: Vec<Channel>,
    now: u64,
    stats: MemStats,
    /// Xorshift state for deterministic latency jitter.
    jitter_state: u64,
    /// Per-channel stall deadline (fault injection): while `now` is below
    /// the deadline the channel services nothing and accepts nothing.
    stalled_until: Vec<u64>,
    /// Per-channel cumulative traffic counters.
    telemetry: Vec<ChannelTelemetry>,
}

impl Hbm {
    /// Creates a memory device from a configuration.
    pub fn new(config: HbmConfig) -> Self {
        Hbm {
            channels: vec![Channel::default(); config.channels],
            stalled_until: vec![0; config.channels],
            telemetry: vec![ChannelTelemetry::default(); config.channels],
            config,
            now: 0,
            stats: MemStats::default(),
            jitter_state: 0x9e3779b97f4a7c15,
        }
    }

    fn next_jitter(&mut self) -> u64 {
        if self.config.latency_jitter == 0 {
            return 0;
        }
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        x % (self.config.latency_jitter as u64 + 1)
    }

    /// The device configuration.
    pub fn config(&self) -> &HbmConfig {
        &self.config
    }

    /// Number of pseudo-channels.
    pub fn num_channels(&self) -> usize {
        self.config.channels
    }

    /// Enqueues a request on `channel`. Returns `false` (dropping nothing)
    /// when the channel queue is full — the caller must retry next cycle,
    /// exactly like a stalled AXI master.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range or `bytes == 0`.
    pub fn try_request(&mut self, channel: usize, request: MemRequest) -> bool {
        assert!(request.bytes > 0, "zero-byte memory request");
        if self.is_stalled(channel) {
            return false;
        }
        let ch = &mut self.channels[channel];
        if ch.pending.len() + ch.in_flight.len() >= self.config.queue_depth {
            return false;
        }
        ch.pending.push_back(request);
        true
    }

    /// Whether `channel` can accept another request this cycle.
    pub fn can_accept(&self, channel: usize) -> bool {
        let ch = &self.channels[channel];
        !self.is_stalled(channel) && ch.pending.len() + ch.in_flight.len() < self.config.queue_depth
    }

    /// Pins `channel` for `cycles` starting now: no service, no
    /// retirement, no new requests (fault injection). `u64::MAX` pins it
    /// forever; a second stall extends the deadline, never shortens it.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn stall_channel(&mut self, channel: usize, cycles: u64) {
        let deadline = self.now.saturating_add(cycles);
        let until = &mut self.stalled_until[channel];
        *until = (*until).max(deadline);
    }

    /// Whether an injected stall is currently pinning `channel`.
    pub fn is_stalled(&self, channel: usize) -> bool {
        self.stalled_until[channel] > self.now
    }

    /// Requests queued or in flight on `channel` (unconsumed responses
    /// excluded).
    pub fn outstanding(&self, channel: usize) -> usize {
        let ch = &self.channels[channel];
        ch.pending.len() + ch.in_flight.len()
    }

    /// Tags of requests queued or in flight across all channels, up to
    /// `limit` (diagnostic snapshots).
    pub fn outstanding_tags(&self, limit: usize) -> Vec<u64> {
        let mut tags = Vec::new();
        'outer: for ch in &self.channels {
            for req in ch.pending.iter().chain(ch.in_flight.iter().map(|(_, r)| r)) {
                if tags.len() >= limit {
                    break 'outer;
                }
                tags.push(req.tag);
            }
        }
        tags
    }

    /// Advances the device by one cycle.
    pub fn step(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        let mut any_busy = false;
        let base_latency = self.config.latency_cycles as u64;
        let jitter_on = self.config.latency_jitter > 0;
        for i in 0..self.channels.len() {
            if self.stalled_until[i] > self.now {
                // A pinned channel freezes completely; its in-flight
                // latency deadlines simply age past.
                self.telemetry[i].stall_cycles += 1;
                continue;
            }
            let jitter = if jitter_on { self.next_jitter() } else { 0 };
            let ch = &mut self.channels[i];
            // Service the head of the queue with this cycle's credit. Idle
            // channels do not bank unbounded credit: cap carry-over at one
            // cycle's worth so a long-idle channel cannot burst above peak.
            if ch.pending.is_empty() {
                ch.credit = ch.credit.min(self.config.bytes_per_cycle_per_channel);
            }
            ch.credit += self.config.bytes_per_cycle_per_channel;
            while let Some(&front) = ch.pending.front() {
                if ch.credit < front.bytes as f64 {
                    break;
                }
                ch.credit -= front.bytes as f64;
                ch.pending.pop_front();
                ch.in_flight
                    .push_back((self.now + base_latency + jitter, front));
                any_busy = true;
            }
            // Retire in-flight requests whose latency elapsed (zero-latency
            // configurations complete in the same cycle they are serviced).
            while let Some(&(ready, req)) = ch.in_flight.front() {
                if ready > self.now {
                    break;
                }
                ch.in_flight.pop_front();
                let tel = &mut self.telemetry[i];
                tel.bytes += req.bytes as u64;
                if req.write {
                    self.stats.bytes_written += req.bytes as u64;
                    self.stats.writes += 1;
                    tel.writes += 1;
                } else {
                    self.stats.bytes_read += req.bytes as u64;
                    self.stats.reads += 1;
                    tel.reads += 1;
                    ch.ready.push_back(req);
                }
            }
        }
        if any_busy {
            self.stats.busy_cycles += 1;
        }
    }

    /// Advances the device by `cycles` cycles in one jump, bit-identically
    /// to calling [`step`](Self::step) that many times, under the
    /// precondition that none of those cycles would have serviced or retired
    /// a request. The caller establishes the precondition via
    /// [`next_event_cycle`](Self::next_event_cycle); violating it is a logic
    /// error (debug assertions catch it).
    ///
    /// Replicated exactly: `now`, cycle counters, per-channel stall
    /// telemetry, the idle-cycle credit cap (one idle cycle leaves
    /// `min(credit, rate) + rate`; two or more leave `2 * rate`), and the
    /// jitter RNG state (one draw per unstalled channel per cycle — idle
    /// draws discard the value, so only the draw *count* matters).
    pub fn advance(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let rate = self.config.bytes_per_cycle_per_channel;
        let jitter_on = self.config.latency_jitter > 0;
        let mut draws = 0u64;
        for i in 0..self.channels.len() {
            // Skipped cycles are now+1 ..= now+cycles; cycle c is pinned
            // while c < stalled_until.
            let stalled = self.stalled_until[i]
                .saturating_sub(self.now + 1)
                .min(cycles);
            self.telemetry[i].stall_cycles += stalled;
            let active = cycles - stalled;
            if active == 0 {
                continue;
            }
            let ch = &mut self.channels[i];
            debug_assert!(
                ch.pending.is_empty(),
                "advance over a channel that would service pending work"
            );
            debug_assert!(
                ch.in_flight
                    .front()
                    .is_none_or(|&(ready, _)| ready > self.now + cycles),
                "advance over a channel that would retire in-flight work"
            );
            if active == 1 {
                ch.credit = ch.credit.min(rate) + rate;
            } else {
                ch.credit = rate + rate;
            }
            if jitter_on {
                draws += active;
            }
        }
        for _ in 0..draws {
            let _ = self.next_jitter();
        }
        self.now += cycles;
        self.stats.cycles += cycles;
    }

    /// The earliest future cycle at which [`step`](Self::step) could service,
    /// retire, or unpin anything, or `None` if the device is fully drained
    /// and will never act again on its own. Used by simulators to bound an
    /// idle-cycle [`advance`](Self::advance): jumping `now` to any cycle
    /// strictly below the returned value is observationally identical to
    /// stepping.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let mut earliest: Option<u64> = None;
        let mut fold = |c: u64| earliest = Some(earliest.map_or(c, |e| e.min(c)));
        for (i, ch) in self.channels.iter().enumerate() {
            // The step that increments `now` to `stalled_until` is the first
            // active one for a pinned channel.
            let first_active = (self.now + 1).max(self.stalled_until[i]);
            if !ch.ready.is_empty() {
                // Unconsumed responses: the caller may act next cycle.
                fold(self.now + 1);
            }
            if !ch.pending.is_empty() {
                // Queued work services at the first unpinned cycle
                // (conservatively imminent — credit arithmetic stays in
                // step()).
                fold(first_active);
            }
            if let Some(&(ready, _)) = ch.in_flight.front() {
                fold(first_active.max(ready));
            }
        }
        earliest
    }

    /// Pops the next completed read on `channel`, if any.
    pub fn pop_ready(&mut self, channel: usize) -> Option<MemRequest> {
        self.channels[channel].ready.pop_front()
    }

    /// Whether every queue in the device is empty (no pending, in-flight, or
    /// unconsumed responses).
    pub fn is_idle(&self) -> bool {
        self.channels
            .iter()
            .all(|c| c.pending.is_empty() && c.in_flight.is_empty() && c.ready.is_empty())
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Cumulative traffic counters of one pseudo-channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn channel_telemetry(&self, channel: usize) -> ChannelTelemetry {
        self.telemetry[channel]
    }

    /// Current cycle count.
    pub fn now(&self) -> u64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> HbmConfig {
        HbmConfig {
            channels: 2,
            bytes_per_cycle_per_channel: 64.0,
            latency_cycles: 4,
            queue_depth: 3,
            latency_jitter: 0,
        }
    }

    #[test]
    fn read_completes_after_latency() {
        let mut hbm = Hbm::new(tiny_config());
        assert!(hbm.try_request(0, MemRequest::read(7, 64)));
        // Serviced on cycle 1, ready at cycle 1 + 4.
        for c in 1..=4 {
            hbm.step();
            assert!(hbm.pop_ready(0).is_none(), "ready too early at cycle {c}");
        }
        hbm.step();
        assert_eq!(hbm.pop_ready(0).unwrap().tag, 7);
        assert!(hbm.is_idle());
    }

    #[test]
    fn bandwidth_limits_throughput() {
        // 64 B/cycle, requests of 64 B: exactly one serviced per cycle.
        let mut hbm = Hbm::new(HbmConfig {
            queue_depth: 1000,
            ..tiny_config()
        });
        for i in 0..10 {
            assert!(hbm.try_request(0, MemRequest::read(i, 64)));
        }
        let mut completions = Vec::new();
        for cycle in 1..=30 {
            hbm.step();
            while let Some(r) = hbm.pop_ready(0) {
                completions.push((cycle, r.tag));
            }
        }
        assert_eq!(completions.len(), 10);
        // One completion per cycle once the pipe fills.
        for w in completions.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 1);
        }
    }

    #[test]
    fn half_rate_channel_services_every_other_cycle() {
        let mut hbm = Hbm::new(HbmConfig {
            channels: 1,
            bytes_per_cycle_per_channel: 32.0,
            latency_cycles: 0,
            queue_depth: 100,
            latency_jitter: 0,
        });
        for i in 0..4 {
            hbm.try_request(0, MemRequest::read(i, 64));
        }
        let mut done = 0;
        for _ in 0..8 {
            hbm.step();
            while hbm.pop_ready(0).is_some() {
                done += 1;
            }
        }
        assert_eq!(done, 4, "32 B/cycle serves four 64 B lines in 8 cycles");
    }

    #[test]
    fn queue_depth_back_pressure() {
        let mut hbm = Hbm::new(tiny_config());
        assert!(hbm.try_request(1, MemRequest::read(0, 64)));
        assert!(hbm.try_request(1, MemRequest::read(1, 64)));
        assert!(hbm.try_request(1, MemRequest::read(2, 64)));
        assert!(!hbm.try_request(1, MemRequest::read(3, 64)));
        assert!(!hbm.can_accept(1));
        assert!(hbm.can_accept(0));
    }

    #[test]
    fn writes_consume_bandwidth_but_produce_no_response() {
        let mut hbm = Hbm::new(tiny_config());
        hbm.try_request(0, MemRequest::write(9, 64));
        for _ in 0..10 {
            hbm.step();
        }
        assert!(hbm.pop_ready(0).is_none());
        assert_eq!(hbm.stats().bytes_written, 64);
        assert_eq!(hbm.stats().writes, 1);
        assert!(hbm.is_idle());
    }

    #[test]
    fn channels_are_independent() {
        let mut hbm = Hbm::new(tiny_config());
        hbm.try_request(0, MemRequest::read(0, 64));
        hbm.try_request(1, MemRequest::read(1, 64));
        for _ in 0..5 {
            hbm.step();
        }
        assert_eq!(hbm.pop_ready(0).unwrap().tag, 0);
        assert_eq!(hbm.pop_ready(1).unwrap().tag, 1);
    }

    #[test]
    fn stats_utilization() {
        let mut hbm = Hbm::new(HbmConfig {
            queue_depth: 1000,
            ..tiny_config()
        });
        for i in 0..8 {
            hbm.try_request(0, MemRequest::read(i, 64));
        }
        for _ in 0..20 {
            hbm.step();
        }
        let u = hbm.stats().utilization(hbm.config());
        // 8 lines * 64 B over 20 cycles * 128 B/cycle peak = 0.2.
        assert!((u - 0.2).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn presets_are_sane() {
        let u280 = HbmConfig::u280(250e6);
        assert_eq!(u280.channels, 32);
        assert!((u280.total_bytes_per_cycle() - 1840.0).abs() < 1.0);
        assert_eq!(u280.latency_cycles, 32);
        let unl = HbmConfig::unlimited(32);
        assert!(unl.total_bytes_per_cycle() > 1e10);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let run = |jitter: u32| -> Vec<u64> {
            let mut hbm = Hbm::new(tiny_config().with_jitter(jitter));
            let mut completions = Vec::new();
            let mut issued = 0u64;
            for cycle in 1..=400u64 {
                if issued < 20 && hbm.try_request(0, MemRequest::read(issued, 64)) {
                    issued += 1;
                }
                hbm.step();
                while hbm.pop_ready(0).is_some() {
                    completions.push(cycle);
                }
            }
            assert_eq!(completions.len(), 20, "jitter {jitter}: all must complete");
            completions
        };
        let a = run(8);
        let b = run(8);
        assert_eq!(a, b, "same jitter config must be deterministic");
        let c = run(0);
        assert_ne!(a, c, "jitter must change completion timing");
        // Jittered completions never beat the base latency.
        for (i, &cycle) in c.iter().enumerate() {
            assert!(a[i] >= cycle);
        }
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_byte_request_panics() {
        let mut hbm = Hbm::new(tiny_config());
        let _ = hbm.try_request(0, MemRequest::read(0, 0));
    }

    #[test]
    fn stalled_channel_freezes_and_recovers() {
        let mut hbm = Hbm::new(tiny_config());
        assert!(hbm.try_request(0, MemRequest::read(3, 64)));
        hbm.stall_channel(0, 10);
        assert!(hbm.is_stalled(0));
        assert!(!hbm.can_accept(0));
        assert!(!hbm.try_request(0, MemRequest::read(4, 64)));
        assert!(hbm.can_accept(1), "other channels keep working");
        for _ in 0..10 {
            hbm.step();
            assert!(hbm.pop_ready(0).is_none(), "no service while pinned");
        }
        assert!(!hbm.is_stalled(0));
        assert_eq!(hbm.outstanding(0), 1);
        assert_eq!(hbm.outstanding_tags(8), vec![3]);
        // Serviced on the first unpinned cycle, ready after the latency.
        let mut tag = None;
        for _ in 0..6 {
            hbm.step();
            if let Some(r) = hbm.pop_ready(0) {
                tag = Some(r.tag);
                break;
            }
        }
        assert_eq!(tag, Some(3));
        assert!(hbm.is_idle());
    }

    #[test]
    fn permanent_stall_never_lifts() {
        let mut hbm = Hbm::new(tiny_config());
        assert!(hbm.try_request(1, MemRequest::read(9, 64)));
        hbm.stall_channel(1, u64::MAX);
        for _ in 0..1000 {
            hbm.step();
        }
        assert!(hbm.is_stalled(1));
        assert!(hbm.pop_ready(1).is_none());
        assert_eq!(hbm.outstanding(1), 1);
    }

    #[test]
    fn channel_telemetry_tracks_bytes_and_stalls() {
        let mut hbm = Hbm::new(tiny_config());
        hbm.try_request(0, MemRequest::read(0, 64));
        hbm.try_request(0, MemRequest::write(1, 64));
        hbm.stall_channel(1, 5);
        for _ in 0..10 {
            hbm.step();
        }
        let ch0 = hbm.channel_telemetry(0);
        assert_eq!(ch0.bytes, 128);
        assert_eq!((ch0.reads, ch0.writes), (1, 1));
        assert_eq!(ch0.stall_cycles, 0);
        let ch1 = hbm.channel_telemetry(1);
        assert_eq!(ch1.bytes, 0);
        // Stalled while `now < deadline`: the deadline cycle itself already
        // services again, so a 5-cycle stall freezes steps 1..=4.
        assert_eq!(ch1.stall_cycles, 4);
        // Per-channel counters sum to the device-wide aggregate.
        let total: u64 = (0..hbm.num_channels())
            .map(|c| hbm.channel_telemetry(c).bytes)
            .sum();
        assert_eq!(total, hbm.stats().total_bytes());
    }

    #[test]
    fn advance_is_bit_identical_to_idle_steps() {
        for jitter in [0u32, 8] {
            // Build a device with history: leftover credit on channel 0, a
            // pinned channel 1, and fractional credit from a 48 B transfer.
            let mut hbm = Hbm::new(tiny_config().with_jitter(jitter));
            assert!(hbm.try_request(0, MemRequest::read(1, 48)));
            for _ in 0..20 {
                hbm.step();
            }
            while hbm.pop_ready(0).is_some() {}
            hbm.stall_channel(1, 9);
            let mut stepped = hbm.clone();
            let mut jumped = hbm.clone();
            for span in [1u64, 2, 5, 13] {
                for _ in 0..span {
                    stepped.step();
                }
                jumped.advance(span);
                assert_eq!(stepped, jumped, "jitter {jitter}, span {span}");
            }
            // The RNG stream must also line up for future jittered traffic.
            assert!(stepped.try_request(0, MemRequest::read(2, 64)));
            assert!(jumped.try_request(0, MemRequest::read(2, 64)));
            for _ in 0..50 {
                stepped.step();
                jumped.step();
            }
            assert_eq!(stepped, jumped, "jitter {jitter}, post-advance traffic");
        }
    }

    #[test]
    fn advance_stops_short_of_the_next_event() {
        let mut hbm = Hbm::new(tiny_config());
        assert!(hbm.try_request(0, MemRequest::read(7, 64)));
        hbm.step(); // serviced at cycle 1, ready at 1 + 4
        assert_eq!(hbm.next_event_cycle(), Some(5));
        let mut stepped = hbm.clone();
        hbm.advance(3); // cycles 2..=4 are pure latency wait
        for _ in 0..3 {
            stepped.step();
        }
        assert_eq!(hbm, stepped);
        hbm.step();
        assert_eq!(hbm.pop_ready(0).unwrap().tag, 7);
        assert_eq!(hbm.next_event_cycle(), None, "drained device never acts");
    }

    #[test]
    fn next_event_cycle_sees_pinned_channels() {
        let mut hbm = Hbm::new(tiny_config());
        assert!(hbm.try_request(1, MemRequest::read(3, 64)));
        hbm.stall_channel(1, 10);
        // Pending work behind a pin: nothing can happen before the pin
        // lifts at cycle 10.
        assert_eq!(hbm.next_event_cycle(), Some(10));
        let mut stepped = hbm.clone();
        hbm.advance(9);
        for _ in 0..9 {
            stepped.step();
        }
        assert_eq!(hbm, stepped);
        assert_eq!(hbm.channel_telemetry(1).stall_cycles, 9);
    }

    #[test]
    fn stall_extends_but_never_shortens() {
        let mut hbm = Hbm::new(tiny_config());
        hbm.stall_channel(0, 20);
        hbm.stall_channel(0, 5);
        for _ in 0..10 {
            hbm.step();
        }
        assert!(hbm.is_stalled(0), "longer deadline must win");
    }
}
