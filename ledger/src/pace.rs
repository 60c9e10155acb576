//! Machine-speed calibration. The sandbox is a few shared cores whose speed
//! swings by tens of percent over seconds to minutes, which is more than
//! the bounds the ledger gates on. So every timing the ledger reports
//! end to end is taken beside a **calibration tick** — a fixed piece of the
//! ledger's own integer work (nothing of the product's) that takes
//! [`NOMINAL_TICK_NS`] on the quiet sandbox — and divided by how much slower
//! than that the ticks nearest to it in time ran. What is reported is the
//! time the operation takes at the reference speed: interference that slows
//! ticks and product alike cancels, a change to the product does not.
//!
//! Ticks run *between* timed operations, never inside one, and take about
//! [`TICK_SHARE`] of the elapsed time. The stretches of product time between
//! them are the [`Pacer`]'s segments, whose wall and CPU time add up to a
//! window's throughput and CPU cost.

use crate::procfs;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// What one tick takes on the quiet two-core sandbox (measured once, fixed:
/// it only sets the scale, so that reference-speed times read like the
/// sandbox's own when it is quiet).
pub const NOMINAL_TICK_NS: f64 = 1_000_000.0;
/// Share of elapsed time spent in ticks.
const TICK_SHARE: f64 = 0.08;
/// A timing is scaled by the mean of this many ticks on either side of it.
const NEIGHBOURS: usize = 24;
/// One descheduled tick must not speak for all its neighbours: a tick
/// counts for at most this many nominal ticks.
const TICK_CLAMP: f64 = 8.0;

const TABLE: usize = 4096;
const BLOCKS: usize = 128;
/// Rounds per tick, sized so a tick takes [`NOMINAL_TICK_NS`] on the quiet
/// sandbox.
const ROUNDS: usize = 35_000;

/// The tick's working set: a symbol table the size of an entropy decoder's
/// (16 KiB) and as much again of 8x8 coefficient blocks, so the tick leans
/// on the same parts of a core as decode and encode do — integer
/// multiplies, shifts, data-dependent table lookups, short inner loops.
/// It is small on purpose: a tick must take the same time whether the ticks
/// before it or the product ran last, and 32 KiB is back in L1 within the
/// first percent of a tick. (With 1 MiB of blocks a burst of ticks ran 30 %
/// faster than single ticks between queries.)
/// One page-aligned allocation with a fixed layout, because the tick's speed
/// depends on where its two halves lie relative to each other: as two `Vec`s
/// wherever the allocator put them, some placements ran 50 % slower than
/// others (loads of the one aliasing stores to the other), run after run of
/// one process and differently in the next.
#[repr(C, align(4096))]
struct Kernel {
    table: [u32; TABLE],
    blocks: [[i16; 64]; BLOCKS],
    state: u32,
}

impl Kernel {
    fn new() -> Box<Kernel> {
        let mut x = 0x2545_f491u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        Box::new(Kernel {
            table: std::array::from_fn(|_| next()),
            blocks: std::array::from_fn(|_| std::array::from_fn(|_| (next() >> 20) as i16 - 2048)),
            state: 1 << 20,
        })
    }

    /// One tick: an entropy-decoder-shaped state walk that picks the blocks,
    /// and a butterfly pass over each picked block.
    fn tick(&mut self) {
        let mut s = self.state;
        for _ in 0..ROUNDS {
            let slot = self.table[(s & (TABLE as u32 - 1)) as usize];
            let (freq, start) = ((slot & 0xfff) | 1, slot >> 20);
            s = freq
                .wrapping_mul(s >> 12)
                .wrapping_add(s & 0xfff)
                .wrapping_sub(start);
            if s < 1 << 16 {
                s = (s << 8) | ((slot >> 12) & 0xff) | (1 << 20);
            }
            let block = &mut self.blocks[(s >> 7) as usize % BLOCKS];
            for row in block.chunks_exact_mut(8) {
                for i in 0..4 {
                    let (a, b) = (row[i] as i32, row[7 - i] as i32);
                    row[i] = (((a + b) * 181) >> 8) as i16;
                    row[7 - i] = (((a - b) * 139) >> 8) as i16 ^ (s as i16 & 1);
                }
            }
        }
        self.state = black_box(s);
    }
}

/// A stretch of product time between two pauses (ticks, or the ledger's own
/// checks), on the pacer's clock.
struct Segment {
    span: Range<u64>,
    cpu_ns: u64,
}

/// One calibration tick: when it ended on the pacer's clock, and how many
/// nominal ticks of wall time and of its thread's CPU time it took. The two
/// differ when the tick was descheduled: that stretches wall time only, and
/// wall timings are scaled by the one, CPU timings by the other.
struct Tick {
    end_ns: u64,
    wall: f64,
    cpu: f64,
}

/// Runs ticks between the operations of a run and keeps the run's clock.
pub struct Pacer {
    epoch: Instant,
    kernel: Box<Kernel>,
    ticks: Vec<Tick>,
    segments: Vec<Segment>,
    /// Start of the open segment, which is the end of the last pause:
    /// (clock, process CPU).
    open: (u64, u64),
}

impl Pacer {
    pub fn new() -> Pacer {
        let mut p = Pacer {
            epoch: Instant::now(),
            kernel: Kernel::new(),
            ticks: Vec::new(),
            segments: Vec::new(),
            open: (0, 0),
        };
        // Warm the kernel's working set; these ticks are not kept.
        for _ in 0..4 {
            p.kernel.tick();
        }
        p.burst(NEIGHBOURS);
        p
    }

    /// Nanoseconds on the pacer's clock.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn close(&mut self) {
        let (now, cpu) = (self.now_ns(), procfs::cpu_ns());
        if now > self.open.0 {
            self.segments.push(Segment {
                span: self.open.0..now,
                cpu_ns: cpu.saturating_sub(self.open.1),
            });
        }
    }

    fn reopen(&mut self) {
        self.open = (self.now_ns(), procfs::cpu_ns());
    }

    fn burst(&mut self, n: usize) {
        for _ in 0..n {
            let (t, cpu) = (self.now_ns(), procfs::thread_cpu_ns());
            self.kernel.tick();
            let (end_ns, cpu_end) = (self.now_ns(), procfs::thread_cpu_ns());
            self.ticks.push(Tick {
                end_ns,
                wall: ((end_ns - t) as f64 / NOMINAL_TICK_NS).min(TICK_CLAMP),
                cpu: (cpu_end - cpu) as f64 / NOMINAL_TICK_NS,
            });
        }
        self.reopen();
    }

    /// Call between timed operations: runs the ticks that have come due
    /// since the last pause.
    pub fn pace(&mut self) {
        let due = TICK_SHARE * (self.now_ns() - self.open.0) as f64 / NOMINAL_TICK_NS;
        if due >= 1.0 {
            self.close();
            // After a long operation many are due at once; more than the
            // neighbourhood that scales a timing adds nothing.
            self.burst((due as usize).min(NEIGHBOURS));
        }
    }

    /// Forces a boundary between segments (with its ticks) and returns the
    /// clock at the start of the new segment.
    pub fn mark(&mut self) -> u64 {
        self.close();
        self.burst(NEIGHBOURS / 2);
        self.open.0
    }

    /// Runs the ledger's own work (an oracle scan, a directory listing)
    /// outside every segment.
    pub fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.close();
        let r = f();
        self.reopen();
        r
    }

    pub fn finish(mut self) -> Paced {
        self.close();
        self.burst(NEIGHBOURS);
        Paced {
            ticks: self.ticks,
            segments: self.segments,
        }
    }
}

/// A finished run's ticks and segments: turns the run's raw timings into
/// reference-speed ones.
pub struct Paced {
    ticks: Vec<Tick>,
    segments: Vec<Segment>,
}

impl Paced {
    /// How many times slower than nominal the machine ran around `at_ns`,
    /// in (wall, CPU) time: the means of the [`NEIGHBOURS`] ticks before and
    /// after it.
    pub fn slowdown(&self, at_ns: u64) -> (f64, f64) {
        let i = self.ticks.partition_point(|t| t.end_ns <= at_ns);
        let near =
            &self.ticks[i.saturating_sub(NEIGHBOURS)..(i + NEIGHBOURS).min(self.ticks.len())];
        let n = near.len() as f64;
        let wall: f64 = near.iter().map(|t| t.wall).sum();
        let cpu: f64 = near.iter().map(|t| t.cpu).sum();
        (wall / n, cpu / n)
    }

    /// The reference-speed milliseconds of an operation that started at
    /// `at_ns` and took `dur_ns`.
    pub fn ms(&self, at_ns: u64, dur_ns: u64) -> f64 {
        dur_ns as f64 / 1e6 / self.slowdown(at_ns + dur_ns / 2).0
    }

    /// Reference-speed (wall seconds, CPU seconds) of the product time
    /// inside `span`, which starts and ends at marks.
    pub fn busy(&self, span: &Range<u64>) -> (f64, f64) {
        let (mut wall, mut cpu) = (0.0, 0.0);
        for s in &self.segments {
            if s.span.start >= span.start && s.span.end <= span.end {
                let slow = self.slowdown((s.span.start + s.span.end) / 2);
                wall += (s.span.end - s.span.start) as f64 / 1e9 / slow.0;
                cpu += s.cpu_ns as f64 / 1e9 / slow.1;
            }
        }
        (wall, cpu)
    }

    /// The mean slowdown over `span`, weighted by product time.
    pub fn mean_slowdown(&self, span: &Range<u64>) -> f64 {
        let raw: u64 = self
            .segments
            .iter()
            .filter(|s| s.span.start >= span.start && s.span.end <= span.end)
            .map(|s| s.span.end - s.span.start)
            .sum();
        raw as f64 / 1e9 / self.busy(span).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_of_the_neighbouring_ticks() {
        let ticks = (1..=100u64)
            .map(|i| Tick {
                end_ns: i * 10_000_000,
                wall: if i <= 50 { 1.0 } else { 2.0 },
                cpu: 1.0,
            })
            .collect();
        let p = Paced {
            ticks,
            segments: vec![Segment {
                span: 0..100_000_000,
                cpu_ns: 50_000_000,
            }],
        };
        assert_eq!(p.slowdown(100_000_000), (1.0, 1.0));
        assert_eq!(p.slowdown(900_000_000), (2.0, 1.0));
        assert_eq!(p.slowdown(505_000_000), (1.5, 1.0));
        assert_eq!(p.ms(900_000_000, 4_000_000), 2.0);
        assert_eq!(p.busy(&(0..100_000_000)), (0.1, 0.05));
        assert_eq!(p.busy(&(0..50_000_000)), (0.0, 0.0));
    }
}
