//! Host-speed normalisation of the end-to-end times.
//!
//! The benchmark runs on a shared host whose speed drifts by up to a
//! factor of two over periods of seconds to minutes, while a fixed
//! compute-only loop barely moves: the drift comes from neighbours
//! competing for caches and memory. No amount of work inside one run
//! averages out a slow minute, so the benchmark measures the host's speed
//! next to the program and scales every end-to-end time by it.
//!
//! A *probe* is a fixed amount of the benchmark's own, allocation-free
//! work that stresses the same resources as the synthesis (sorting a
//! 400 KB array, then inserting into and probing a 2 MiB open-addressing
//! hash table). The workloads run a probe between operations, at most
//! every [`INTERVAL_S`] seconds, never inside one. An operation's time
//! is scaled by [`REFERENCE_PROBE_S`] over the median probe time near it
//! (within [`WINDOW_S`] of its start or end): "seconds at the reference
//! host speed". The probe is part of the benchmark, not of the program,
//! so a change to the program moves the scaled times exactly as it moves
//! the raw ones.

use std::time::Instant;

use crate::util::{median, Lcg};

/// Median probe time on the reference host state (a 2-core Xeon VM at
/// 2.1 GHz, quiet period). Scaled times equal raw times at this speed.
pub const REFERENCE_PROBE_S: f64 = 0.0015;
/// Probes run at most this often.
const INTERVAL_S: f64 = 0.1;
/// Probes within this many seconds of an operation's start or end set
/// its scale.
const WINDOW_S: f64 = 3.0;
/// Fewest probes a scale is taken from; the nearest ones fill a window
/// that holds fewer.
const MIN_PROBES: usize = 3;
/// Slices per probe; the probe records their median, so an interrupt
/// during one slice does not count.
const SLICES: usize = 3;
const KEYS: usize = 50_000;
const TABLE_SLOTS: usize = 1 << 18;

/// The probe's buffers, allocated once so that a probe never touches the
/// allocator the program uses.
struct Probe {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    table: Vec<u64>,
}

impl Probe {
    fn new() -> Probe {
        let mut rng = Lcg::new(0x5eed);
        let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64() | 1).collect();
        Probe {
            sorted: keys.clone(),
            keys,
            table: vec![0; TABLE_SLOTS],
        }
    }

    /// One slice: sort a copy of the keys, insert them into the emptied
    /// table, look up every third key in sorted order. Returns its time.
    fn slice(&mut self) -> f64 {
        let t0 = Instant::now();
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.table.fill(0);
        let mask = TABLE_SLOTS - 1;
        let slot = |k: u64| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
        for &k in &self.keys {
            let mut i = slot(k);
            while self.table[i] != 0 && self.table[i] != k {
                i = (i + 1) & mask;
            }
            self.table[i] = k;
        }
        let mut found = 0usize;
        for &k in self.sorted.iter().step_by(3) {
            let mut i = slot(k);
            while self.table[i] != 0 {
                if self.table[i] == k {
                    found += 1;
                    break;
                }
                i = (i + 1) & mask;
            }
        }
        std::hint::black_box(found);
        t0.elapsed().as_secs_f64()
    }
}

/// A measured time and when it was taken, so that it can be scaled by
/// the probes around it once the run is over.
#[derive(Clone, Copy)]
pub struct Timed {
    pub secs: f64,
    pub from: Instant,
    pub to: Instant,
}

impl Timed {
    /// From `from` until now.
    pub fn since(from: Instant) -> Timed {
        let to = Instant::now();
        Timed {
            secs: (to - from).as_secs_f64(),
            from,
            to,
        }
    }
}

/// The start of a time that leaves out the probes run inside it.
pub struct Mark {
    at: Instant,
    probed_s: f64,
}

/// The run's probes: when each ran and how long it took.
pub struct Speed {
    probe: Probe,
    start: Instant,
    last: Option<Instant>,
    /// (midpoint in seconds since `start`, probe time) per probe.
    samples: Vec<(f64, f64)>,
    /// Time spent probing, all probes.
    spent_s: f64,
}

impl Default for Speed {
    fn default() -> Speed {
        let mut probe = Probe::new();
        // Fault the buffers in before the first probe that counts.
        probe.slice();
        Speed {
            probe,
            start: Instant::now(),
            last: None,
            samples: Vec::new(),
            spent_s: 0.0,
        }
    }
}

impl Speed {
    /// Runs a probe now.
    pub fn probe(&mut self) {
        let t0 = Instant::now();
        let mut slices: Vec<f64> = (0..SLICES).map(|_| self.probe.slice()).collect();
        slices.sort_by(f64::total_cmp);
        let t1 = Instant::now();
        let mid = ((t0 - self.start) + (t1 - self.start)).as_secs_f64() / 2.0;
        self.samples.push((mid, slices[SLICES / 2]));
        self.spent_s += (t1 - t0).as_secs_f64();
        self.last = Some(t1);
    }

    /// Runs a probe if none ran in the last [`INTERVAL_S`] seconds. Call
    /// it between operations.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= INTERVAL_S)
        {
            self.probe();
        }
    }

    /// Marks the start of a time that spans probes (a pass, a set-up).
    pub fn mark(&self) -> Mark {
        Mark {
            at: Instant::now(),
            probed_s: self.spent_s,
        }
    }

    /// The time from `mark` until now, less the probes run meanwhile.
    pub fn since(&self, mark: &Mark) -> Timed {
        let t = Timed::since(mark.at);
        Timed {
            secs: t.secs - (self.spent_s - mark.probed_s),
            ..t
        }
    }

    /// Scale of a time taken over `t`: reference over the median probe
    /// time near it; 1 when no probe ran.
    fn scale(&self, t: &Timed) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let from = (t.from - self.start).as_secs_f64() - WINDOW_S;
        let to = (t.to - self.start).as_secs_f64() + WINDOW_S;
        let mut near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|&(_, s)| s)
            .collect();
        if near.len() < MIN_PROBES {
            let distance = |at: f64| (from - at).max(at - to).max(0.0);
            let mut by_distance = self.samples.clone();
            by_distance.sort_by(|a, b| distance(a.0).total_cmp(&distance(b.0)));
            near = by_distance
                .iter()
                .take(MIN_PROBES)
                .map(|&(_, s)| s)
                .collect();
        }
        REFERENCE_PROBE_S / median(&near)
    }

    /// `t` in seconds at the reference host speed.
    pub fn scaled(&self, t: &Timed) -> f64 {
        t.secs * self.scale(t)
    }

    /// Summary for the report: probes, median probe time, range, time
    /// spent probing.
    pub fn summary(&self) -> String {
        let times: Vec<f64> = self.samples.iter().map(|&(_, s)| s).collect();
        let (lo, hi) = times.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
        format!(
            "host speed: {} probes, median {:.3} ms (reference {:.3} ms, range {:.3}-{:.3} ms), {:.2} s spent probing; times are scaled to the reference",
            times.len(),
            1e3 * median(&times),
            1e3 * REFERENCE_PROBE_S,
            1e3 * lo,
            1e3 * hi,
            self.spent_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn scale_uses_the_probes_near_a_time() {
        let mut speed = Speed::default();
        let t0 = speed.start;
        let at = |s: f64| t0 + Duration::from_secs_f64(s);
        // Host at half the reference speed early, at the reference late.
        for i in 0..10 {
            speed
                .samples
                .push((0.1 * i as f64, 2.0 * REFERENCE_PROBE_S));
            speed
                .samples
                .push((10.0 + 0.1 * i as f64, REFERENCE_PROBE_S));
        }
        let early = Timed {
            secs: 1.0,
            from: at(0.2),
            to: at(0.5),
        };
        let late = Timed {
            secs: 1.0,
            from: at(10.2),
            to: at(10.5),
        };
        assert!((speed.scaled(&early) - 0.5).abs() < 1e-12);
        assert!((speed.scaled(&late) - 1.0).abs() < 1e-12);
        // Far from every probe: the nearest ones decide.
        let lonely = Timed {
            secs: 1.0,
            from: at(30.0),
            to: at(31.0),
        };
        assert!((speed.scaled(&lonely) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probes_are_recorded_and_left_out_of_times() {
        let mut speed = Speed::default();
        speed.probe();
        let mark = speed.mark();
        speed.tick();
        assert_eq!(
            speed.samples.len(),
            1,
            "tick within the interval is a no-op"
        );
        speed.probe();
        let t = speed.since(&mark);
        assert!(speed.samples[1].1 > 0.0 && speed.spent_s > 0.0);
        assert!(
            t.secs < (t.to - t.from).as_secs_f64(),
            "probe time is left out"
        );
    }
}
