//! Barrier with reduction: the BSP synchronisation point.
//!
//! Each worker ends a superstep by calling [`SyncPoint::arrive`] with its
//! local contribution (messages sent, whether all its subgraphs voted to
//! halt). The last arriver aggregates the contributions, stores the global
//! [`Aggregate`], resets the accumulators and wakes everyone — one blocking
//! rendezvous per superstep, exactly the structure whose wait time the paper
//! reports as "Sync Overhead" (Fig. 7b/7d).

use crate::error::EngineError;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Per-worker contribution folded at the barrier.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Contribution {
    /// Messages this worker emitted during the phase.
    pub msgs_sent: u64,
    /// True when every subgraph owned by this worker voted to halt.
    pub all_halted: bool,
}

/// Global reduction of all workers' contributions.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Total messages emitted across the cluster during the phase.
    pub total_msgs: u64,
    /// True when every subgraph in the cluster voted to halt.
    pub all_halted: bool,
}

impl Aggregate {
    /// BSP termination rule: stop when nobody sent anything and everyone
    /// voted to halt.
    pub fn should_stop(&self) -> bool {
        self.total_msgs == 0 && self.all_halted
    }
}

struct State {
    arrived: usize,
    generation: u64,
    msgs: u64,
    halted: bool,
    /// The first death reported to [`SyncPoint::poison`]: the partition
    /// that died and the evidence. Every later arrival is told about this
    /// one, so cascades name the primary failure.
    poisoned: Option<(u16, String)>,
    result: Aggregate,
}

impl State {
    /// The typed error every arrival at a poisoned sync point receives.
    fn death(&self) -> Option<EngineError> {
        self.poisoned
            .as_ref()
            .map(|(partition, detail)| EngineError::RemoteWorkerDied {
                partition: *partition,
                detail: detail.clone(),
            })
    }
}

/// What [`SyncPoint::arrive`] reports when a thread panicked while it held
/// the state lock: the barrier's count can no longer be trusted, so the
/// arrival fails instead of waiting on it.
fn lock_poisoned<T>(_: PoisonError<T>) -> EngineError {
    EngineError::Protocol {
        detail: "sync point lock poisoned: a thread panicked inside the barrier".to_string(),
    }
}

/// Reusable barrier-with-reduction for `n` workers. See module docs.
pub struct SyncPoint {
    n: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl SyncPoint {
    /// A sync point for `n` workers (`n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one worker");
        SyncPoint {
            n,
            state: Mutex::new(State {
                arrived: 0,
                generation: 0,
                msgs: 0,
                halted: true,
                poisoned: None,
                result: Aggregate::default(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Block until all `n` workers arrive; returns the folded [`Aggregate`].
    ///
    /// Fails with [`EngineError::RemoteWorkerDied`] naming the dead
    /// partition if the sync point was [`SyncPoint::poison`]ed — a peer
    /// worker died, so the full complement can never arrive and waiting
    /// would deadlock — and with [`EngineError::Protocol`] if a thread
    /// panicked while holding the state lock.
    pub fn arrive(&self, c: Contribution) -> Result<Aggregate, EngineError> {
        let mut s = self.state.lock().map_err(lock_poisoned)?;
        if let Some(e) = s.death() {
            return Err(e);
        }
        s.msgs += c.msgs_sent;
        s.halted &= c.all_halted;
        s.arrived += 1;
        if s.arrived == self.n {
            s.result = Aggregate {
                total_msgs: s.msgs,
                all_halted: s.halted,
            };
            s.arrived = 0;
            s.msgs = 0;
            s.halted = true;
            s.generation += 1;
            self.cv.notify_all();
        } else {
            let gen = s.generation;
            while s.generation == gen {
                s = self.cv.wait(s).map_err(lock_poisoned)?;
                if let Some(e) = s.death() {
                    return Err(e);
                }
            }
        }
        Ok(s.result)
    }

    /// Report that `partition`'s worker died (with `detail` as evidence)
    /// and wake every waiter: their `arrive` calls fail instead of
    /// deadlocking on a worker that will never show up. The first report
    /// wins, so a cascade re-reporting the death it was told about cannot
    /// displace the primary.
    pub fn poison(&self, partition: u16, detail: &str) {
        let mut s = self.state_even_if_poisoned();
        if s.poisoned.is_none() {
            s.poisoned = Some((partition, detail.to_string()));
        }
        self.cv.notify_all();
    }

    /// The death this sync point was poisoned with, if any.
    pub fn poisoned_by(&self) -> Option<(u16, String)> {
        self.state_even_if_poisoned().poisoned.clone()
    }

    /// The state lock, recovered from lock poison: a holder can unwind
    /// only between whole field updates, so `State` is consistent at every
    /// point a panic can leave it.
    fn state_even_if_poisoned(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pure barrier: arrive with an empty contribution.
    pub fn barrier(&self) -> Result<(), EngineError> {
        self.arrive(Contribution {
            msgs_sent: 0,
            all_halted: true,
        })
        .map(|_| ())
    }
}

/// RAII guard a worker holds for its whole run: if the worker unwinds (an
/// injected fault or a real bug), `Drop` poisons the sync point in the
/// worker's name so peers blocked at the barrier fail promptly instead of
/// deadlocking. A normal return drops the guard without poisoning.
pub struct PoisonOnPanic<'a>(pub &'a SyncPoint, pub u16);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison(self.1, "worker thread panicked");
        }
    }
}

/// The message a panic payload carries, when it was a string.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_worker_reduction() {
        let sp = SyncPoint::new(1);
        let agg = sp
            .arrive(Contribution {
                msgs_sent: 3,
                all_halted: false,
            })
            .unwrap();
        assert_eq!(agg.total_msgs, 3);
        assert!(!agg.all_halted);
        assert!(!agg.should_stop());
        // Reusable: accumulators were reset.
        let agg2 = sp
            .arrive(Contribution {
                msgs_sent: 0,
                all_halted: true,
            })
            .unwrap();
        assert!(agg2.should_stop());
    }

    #[test]
    fn multi_worker_fold_and_broadcast() {
        let sp = Arc::new(SyncPoint::new(4));
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let sp = sp.clone();
                std::thread::spawn(move || {
                    sp.arrive(Contribution {
                        msgs_sent: i,
                        all_halted: i != 2,
                    })
                    .unwrap()
                })
            })
            .collect();
        for h in handles {
            let agg = h.join().unwrap();
            assert_eq!(agg.total_msgs, 6);
            assert!(!agg.all_halted);
        }
    }

    #[test]
    fn many_generations_stay_in_lockstep() {
        let sp = Arc::new(SyncPoint::new(3));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let sp = sp.clone();
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0..100u64 {
                        let agg = sp
                            .arrive(Contribution {
                                msgs_sent: round,
                                all_halted: true,
                            })
                            .unwrap();
                        seen.push(agg.total_msgs);
                    }
                    seen
                })
            })
            .collect();
        let expect: Vec<u64> = (0..100u64).map(|r| r * 3).collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
    }

    #[test]
    fn barrier_is_just_an_empty_arrive() {
        let sp = Arc::new(SyncPoint::new(2));
        let sp2 = sp.clone();
        let t = std::thread::spawn(move || sp2.barrier());
        sp.barrier().unwrap();
        t.join().unwrap().unwrap();
    }

    #[test]
    fn poison_wakes_waiters_and_fails_future_arrivals() {
        let sp = Arc::new(SyncPoint::new(2));
        let waiter = {
            let sp = sp.clone();
            std::thread::spawn(move || sp.barrier())
        };
        // Give the waiter time to block, then poison instead of arriving.
        std::thread::sleep(std::time::Duration::from_millis(20));
        sp.poison(1, "killed");
        let died = EngineError::RemoteWorkerDied {
            partition: 1,
            detail: "killed".into(),
        };
        let err = waiter
            .join()
            .unwrap()
            .expect_err("waiter must fail, not hang");
        assert_eq!(err, died);
        // Later arrivals fail fast too, and a cascade re-reporting (or
        // blaming someone else) cannot displace the primary.
        sp.poison(0, "cascade");
        assert_eq!(sp.barrier(), Err(died));
        assert_eq!(sp.poisoned_by(), Some((1, "killed".to_string())));
    }

    #[test]
    fn a_poisoned_lock_fails_arrivals_instead_of_hanging() {
        let sp = Arc::new(SyncPoint::new(2));
        let holder = {
            let sp = sp.clone();
            std::thread::spawn(move || {
                let _held = sp.state.lock().unwrap();
                panic!("died holding the barrier lock");
            })
        };
        assert!(holder.join().is_err());
        assert!(sp.state.is_poisoned());
        assert!(matches!(
            sp.arrive(Contribution::default()),
            Err(EngineError::Protocol { .. })
        ));
        // Reporting a death still works on the recovered state.
        sp.poison(1, "killed");
        assert_eq!(sp.poisoned_by(), Some((1, "killed".to_string())));
    }

    #[test]
    fn poison_on_panic_guard_only_fires_during_unwind() {
        let sp = Arc::new(SyncPoint::new(2));
        {
            let _guard = PoisonOnPanic(&sp, 0);
        }
        // Clean drop: not poisoned, a 2-party barrier still works.
        let sp2 = sp.clone();
        let t = std::thread::spawn(move || sp2.barrier());
        sp.barrier().unwrap();
        t.join().unwrap().unwrap();

        let sp3 = sp.clone();
        let dead = std::thread::spawn(move || {
            let _guard = PoisonOnPanic(&sp3, 1);
            panic!("worker bug");
        })
        .join();
        assert!(dead.is_err());
        assert!(
            matches!(
                sp.barrier(),
                Err(EngineError::RemoteWorkerDied { partition: 1, .. })
            ),
            "unwinding drop must poison in the worker's name"
        );
    }
}
