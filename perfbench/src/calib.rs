//! Host-speed calibration of the end-to-end timings.
//!
//! On a shared host the speed of this process drifts with the neighbours'
//! load: on a 2-vCPU KVM guest (Xeon, Sapphire Rapids) the same detailed
//! cells ran at 420k to 680k simulated instructions per second in
//! consecutive 20-second runs, and every timing of a run moved together.
//! So the benchmark times a fixed kernel of its own between operations
//! and scales its end-to-end timings to a reference host speed: a time
//! `t` measured while the kernel's median was `k` seconds is reported as
//! `t * KERNEL_REF_S / k`. The kernel belongs to the benchmark and does
//! not change with the simulator, so a change to the simulator moves the
//! scaled timings exactly as much as the raw ones.
//!
//! The kernel fills a fresh hash map, as the simulator's wakeup index and
//! trace structures do. Of four candidates timed next to detailed cells
//! for seven minutes on that guest (an ALU loop, a 64 MiB pointer chase, a
//! 2 MiB chase with table updates, and this one), this one followed the
//! simulator best: over 20- and 30-second windows the quartile spread of
//! the simulator's speed was 11% and 16% raw, and 5% divided by the
//! kernel's speed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// The kernel's median time on the reference host (the guest above, at a
/// quiet moment); only a scale, so that scaled figures read like raw ones.
const KERNEL_REF_S: f64 = 0.006;

/// Operation seconds between kernel samples.
const CADENCE_S: f64 = 0.2;

/// Map operations per sample.
const OPS: u64 = 100_000;

/// Times the calibration kernel between operations.
pub struct Calibrator {
    samples: Vec<f64>,
    next_at_s: f64,
}

impl Calibrator {
    /// A calibrator with one sample taken.
    pub fn new() -> Calibrator {
        let mut c = Calibrator { samples: Vec::new(), next_at_s: CADENCE_S };
        c.sample();
        c
    }

    /// Runs the kernel once and records its time: `OPS` updates and
    /// lookups on a fresh map of up to 64Ki keys, with a fixed hasher so
    /// that every run does the same work.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let (mut x, mut hits) = (7u64, 0u64);
        for _ in 0..OPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let k = (x >> 40) & 0xffff;
            *map.entry(k).or_insert(0) += 1;
            if let Some(v) = map.get(&(k ^ 5)) {
                hits += v;
            }
        }
        black_box(hits);
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// Samples the kernel if `CADENCE_S` operation seconds have passed
    /// since the last sample; `ops_s` is the operation time so far.
    pub fn after_ops(&mut self, ops_s: f64) {
        if ops_s >= self.next_at_s {
            self.next_at_s = ops_s + CADENCE_S;
            self.sample();
        }
    }

    /// Kernel samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// How much slower than the reference host this run was: scaled time
    /// is raw time divided by this.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / KERNEL_REF_S
    }
}
