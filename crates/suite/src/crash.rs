//! One crash-sweep harness for every durable structure, after deterministic
//! simulation testing: a [`Workload`] runs its operations through a
//! [`FaultIo`], and [`sweep`] crashes it at every mutating operation with
//! both crash kinds, then crashes the recovery of each crash at every
//! mutating operation of the recovering open.
//!
//! The oracle is a fault-free twin. After any crash, the reopened state must
//! equal the twin's after its first `k` operations, for some `k` with
//! `acknowledged ≤ k ≤ attempted`: every acknowledged operation survives,
//! the one in flight may, and nothing torn is seen. [`FaultIo`] persists
//! every write that completes, so a power cut's loss of directory entries
//! that were never synced is not modelled.

use crate::TempDir;
use std::cell::Cell;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Once};
use tasm_core::durable::{FaultIo, FaultKind};

/// A durable structure under the sweep.
pub trait Workload {
    /// What a reopened structure says of itself through its API.
    type State: PartialEq;

    /// Runs the workload in the empty directory `dir` through `io`,
    /// stopping at the first error. Returns how many operations were
    /// acknowledged and how many attempted (those plus the one that failed).
    fn run(&self, dir: &Path, io: Arc<FaultIo>) -> (u64, u64);

    /// Opens `dir` once through `io`, so that its recovery runs through it.
    fn open(&self, dir: &Path, io: Arc<FaultIo>);

    /// Reopens `dir` on real I/O, asserts what every recovered structure
    /// owes, and returns its state.
    fn recover(&self, dir: &Path) -> Self::State;

    /// The fault-free twin's state after its first `k` operations.
    fn twin(&self, k: u64) -> Self::State;
}

/// Where one crash landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Landing {
    pub kind: FaultKind,
    /// The run's mutating operation that crashed, 1-based.
    pub op: u64,
    /// The recovering open's mutating operation that tore, counted as the
    /// run's are, when recovery crashed too.
    pub recovery_op: Option<u64>,
    /// The twin state the recovered one equals.
    pub k: u64,
}

/// What [`sweep`] found.
pub struct Sweep {
    /// The run's mutating operations, those of its first open excluded.
    pub points: u64,
    pub landed: Vec<Landing>,
}

impl Sweep {
    /// Whether some crash recovered to the twin's state after `k` operations.
    pub fn reached(&self, k: u64) -> bool {
        self.landed.iter().any(|l| l.k == k)
    }
}

/// Crashes `w` at each of its mutating operations, fail-stop and torn, and
/// each of those crashes' recoveries at each of theirs, torn, holding every
/// reopened state to the twin; a crashed operation must not be
/// acknowledged. The first operations of any open, as many
/// as it does on an empty directory, are its own: neither a run's fault
/// points nor its recovery's. Called from a test of `crash_recovery`; a
/// failure panics with one line naming the point and the command that
/// reruns that test.
pub fn sweep<W: Workload>(w: &W) -> Sweep {
    // The test harness names each test's thread after the test.
    let thread = std::thread::current();
    let test = thread.name().unwrap_or("<test>");
    let scratch = TempDir::new(&format!("sweep-{test}"));
    let (dir, copy) = (scratch.path().join("run"), scratch.path().join("crashed"));
    reset(&dir);
    let counter = FaultIo::new();
    w.open(&dir, counter.clone());
    let base = counter.mutating_ops();
    reset(&dir);
    let counter = FaultIo::new();
    let (done, attempted) = w.run(&dir, counter.clone());
    assert_eq!(done, attempted, "{test}: the fault-free run failed");
    let points = counter.mutating_ops() - base;
    let twins: Vec<W::State> = (0..=done).map(|k| w.twin(k)).collect();
    let name = std::any::type_name::<W>();
    let workload = name.rsplit("::").next().unwrap_or(name);
    let line = |point: &str, why: &str| {
        format!(
            "{workload}: {point}: {why}; rerun: \
             cargo test -p tasm-suite --test crash_recovery {test} -- --exact"
        )
    };
    // Recovers `dir` and finds the twin state it equals, `k` in
    // `acked..=attempted`.
    let land = |acked: u64, attempted: u64, point: &str| -> u64 {
        let got = quietly(|| w.recover(&dir));
        let got = got.unwrap_or_else(|why| panic!("{}", line(point, &why)));
        let k = (acked..=attempted).find(|&k| twins[k as usize] == got);
        k.unwrap_or_else(|| {
            let at = twins.iter().position(|t| *t == got);
            let why = format!("recovered to twin {at:?}, outside {acked}..={attempted}");
            panic!("{}", line(point, &why))
        })
    };
    land(done, done, "no crash");

    let mut landed = Vec::new();
    for kind in [FaultKind::FailStop, FaultKind::TornWrite] {
        for op in 1..=points {
            let point = format!("{kind:?} at op {op}/{points}");
            reset(&dir);
            let fault = FaultIo::new();
            fault.arm(base + op, kind);
            let (acknowledged, attempted) = quietly(|| w.run(&dir, fault.clone()))
                .unwrap_or_else(|why| panic!("{}", line(&point, &why)));
            assert!(fault.crashed(), "{}", line(&point, "the fault never fired"));
            let acked_crash = line(&point, "the crashed operation was acknowledged");
            assert!(attempted > acknowledged, "{acked_crash}");
            copy_tree(&dir, &copy);
            let k = land(acknowledged, attempted, &point);
            landed.push(Landing {
                kind,
                op,
                recovery_op: None,
                k,
            });

            // The recovering open of this crash, torn at each mutating
            // operation past the `base` any open does, then recovered again.
            for m in base + 1.. {
                copy_tree(&copy, &dir);
                let fault = FaultIo::new();
                fault.arm(m, FaultKind::TornWrite);
                w.open(&dir, fault.clone());
                if !fault.crashed() {
                    break;
                }
                let point = format!("{point}, recovery op {m}");
                let k = land(acknowledged, attempted, &point);
                landed.push(Landing {
                    kind,
                    op,
                    recovery_op: Some(m),
                    k,
                });
            }
        }
    }
    Sweep { points, landed }
}

/// Runs `op(0)`, `op(1)`, … `op(ops - 1)` until one fails: how many
/// returned `Ok` (were acknowledged) and how many were attempted.
pub fn until_error<E>(ops: u64, mut op: impl FnMut(u64) -> Result<(), E>) -> (u64, u64) {
    (0..ops)
        .find(|&i| op(i).is_err())
        .map_or((ops, ops), |i| (i, i + 1))
}

thread_local! {
    /// Set while [`quietly`] runs: the panic it catches is reported in the
    /// sweep's one line instead of by the hook.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, returning its panic's message as an error.
fn quietly<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let next = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                next(info);
            }
        }));
    });
    QUIET.set(true);
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.set(false);
    result.map_err(|payload| {
        let why = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("a panic");
        why.replace('\n', " ")
    })
}

/// Empties `dir`, creating it if need be.
fn reset(dir: &Path) {
    fs::remove_dir_all(dir).ok();
    fs::create_dir_all(dir).expect("create a sweep directory");
}

/// Replaces `to` with a copy of the tree at `from`.
fn copy_tree(from: &Path, to: &Path) {
    reset(to);
    for entry in fs::read_dir(from).expect("read a crashed directory") {
        let entry = entry.expect("a directory entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("an entry's type").is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), &target).expect("copy a crashed file");
        }
    }
}
