//! The eight workloads and what they share: the run configuration, the
//! repetition clock, timed set-up and the verdict-cell oracle.

pub mod batch;
pub mod commit;
pub mod replay;

use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use std::time::Instant;
use tm_audit::{AuditReport, Level, Outcome as Verdict};

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// How long the repetitions measure for.
    pub seconds: f64,
    /// Also run the traced repetitions and the per-layer twins.
    pub traced: bool,
    /// 1/20 size, one round: oracles and output shape only.
    pub quick: bool,
}

impl RunCfg {
    /// `n` at full size, `n / 20` in quick mode.
    pub fn scale(&self, n: usize) -> usize {
        if self.quick {
            (n / 20).max(1)
        } else {
            n
        }
    }

    /// [`RunCfg::scale`] for a generated history: a whole number of
    /// transactions per session.
    pub fn txns(&self, n: usize) -> usize {
        self.scale(n).next_multiple_of(crate::inputs::SESSIONS)
    }
}

/// A named workload.
pub struct Workload {
    pub name: &'static str,
    /// Why this workload is in the suite (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub run: fn(&RunCfg, &mut Tracer) -> Outcome,
}

pub const ALL: [Workload; 8] = [
    Workload {
        name: "commit-sweep",
        why: "six backends, no recorder: only stm-runtime works, so a cross-cutting hot-path cost shows here and nowhere else",
        run: commit::commit_sweep,
    },
    Workload {
        name: "live-drain",
        why: "tl2 with the streaming recorder into a counting sink: recorder, queue and merger do all the work, the auditor none",
        run: commit::live_drain,
    },
    Workload {
        name: "replay-healthy",
        why: "healthy history through the windowed auditor: ingest, saturation and close where the recording order is a witness",
        run: replay::replay_healthy,
    },
    Workload {
        name: "ingest-skew",
        why: "wire decode then windowed audit with write-skew plants in every window: the refutation path, bypassing healthy-path fixes",
        run: replay::ingest_skew,
    },
    Workload {
        name: "batch-20k",
        why: "the same checkers as one unbounded window, on the super-linear part of the batch cost curve",
        run: batch::batch_20k,
    },
    Workload {
        name: "replay-sharded",
        why: "healthy history through the 2-way sharded auditor: router, projections, escalation lane and stitch",
        run: replay::replay_sharded,
    },
    Workload {
        name: "wal-round",
        why: "log-then-audit round with seal and frontier snapshot per window, then crash recovery: the log on the verdict path",
        run: replay::wal_round,
    },
    Workload {
        name: "hard-sat",
        why: "DFS-starving planted long forks decided by the CDCL solver: bypasses anything that speeds the polynomial levels",
        run: batch::hard_sat,
    },
];

/// Decides when a workload has repeated enough: at least `min` rounds (two
/// when traced, where a round runs every variant), then until the time budget
/// is spent.  Quick mode runs exactly one round.
pub struct Rounds {
    start: Instant,
    seconds: f64,
    min: u32,
    done: u32,
    quick: bool,
}

impl Rounds {
    pub fn new(cfg: &RunCfg, min: u32) -> Self {
        let min = if cfg.traced { min.min(2) } else { min };
        Rounds { start: Instant::now(), seconds: cfg.seconds, min, done: 0, quick: cfg.quick }
    }

    /// The index of the next round, or `None` when the run is long enough.
    pub fn next_round(&mut self) -> Option<u32> {
        let enough = if self.quick {
            self.done >= 1
        } else {
            self.done >= self.min && self.start.elapsed().as_secs_f64() >= self.seconds
        };
        if enough {
            return None;
        }
        self.done += 1;
        Some(self.done - 1)
    }
}

/// Run `build` repeatedly — at least 5 times, then until 0.2 s is spent or
/// 20 000 builds are done — and return the last product with the median
/// set-up time.  A set-up of a few microseconds gets thousands of samples, so
/// its median is as steady as that of a generated input.
pub fn timed_setup<T>(out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let begin = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let product = build();
        times.push(start.elapsed().as_secs_f64());
        let enough = times.len() >= 5 && begin.elapsed().as_secs_f64() >= 0.2;
        if enough || times.len() >= 20_000 {
            out.set_n("setup_s", median(&times), times.len());
            return product;
        }
    }
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// What the oracle guarantees about an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Serializable by construction: every cell passes.
    Healthy,
    /// Write-skew plants only: SER fails on the whole input (a single window
    /// may hold no plant), every weaker level passes everywhere.
    SkewOnly,
    /// A planted long fork: Prefix, SI and SER fail; RC, RA, Causal pass.
    LongFork,
}

/// Verdict cells judged so far.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cells {
    pub attempted: u64,
    /// `Unknown`, or at odds with the oracle.
    pub failed: u64,
    pub undecided: u64,
    /// At odds with the oracle: a wrong output, not merely a missing one.
    pub wrong: u64,
}

impl Cells {
    /// Judge the six cells of one report.  `whole` says the report covers the
    /// whole input, where a guaranteed failure must show; a single window may
    /// or may not contain the plant.
    pub fn judge(&mut self, report: &AuditReport, expect: Expect, whole: bool) {
        for cell in &report.levels {
            self.attempted += 1;
            let must_fail = match expect {
                Expect::Healthy => false,
                Expect::SkewOnly => cell.level == Level::Serializable,
                Expect::LongFork => cell.level >= Level::Prefix,
            };
            let wrong = match &cell.outcome {
                Verdict::Unknown { .. } => {
                    self.undecided += 1;
                    self.failed += 1;
                    continue;
                }
                Verdict::Pass { .. } => must_fail && whole,
                Verdict::Fail { .. } => !must_fail,
            };
            if wrong {
                self.wrong += 1;
                self.failed += 1;
            }
        }
    }

    pub fn add(&mut self, other: Cells) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.undecided += other.undecided;
        self.wrong += other.wrong;
    }

    /// Fold the cells into the run's operation counts and oracle errors.
    pub fn report(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.check(self.wrong == 0, || {
            format!("{} of {} verdict cells contradict the oracle", self.wrong, self.attempted)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_audit::LevelReport;

    fn report(outcomes: [u8; 6]) -> AuditReport {
        let levels = Level::ALL
            .iter()
            .zip(outcomes)
            .map(|(&level, o)| {
                LevelReport::new(
                    level,
                    match o {
                        0 => Verdict::Pass { witness: String::new() },
                        1 => Verdict::Fail { violation: String::new() },
                        _ => Verdict::unknown("budget", 1, None),
                    },
                )
            })
            .collect();
        AuditReport { shape: String::new(), levels }
    }

    #[test]
    fn cells_are_judged_against_the_oracle() {
        let mut cells = Cells::default();
        cells.judge(&report([0; 6]), Expect::Healthy, true);
        assert_eq!((cells.attempted, cells.failed, cells.wrong), (6, 0, 0));

        // A conviction on a healthy input is wrong; an unknown only fails.
        let mut cells = Cells::default();
        cells.judge(&report([0, 0, 0, 0, 2, 1]), Expect::Healthy, false);
        assert_eq!((cells.failed, cells.undecided, cells.wrong), (2, 1, 1));

        // Skew: a window may pass SER, the whole input may not.
        let mut cells = Cells::default();
        cells.judge(&report([0; 6]), Expect::SkewOnly, false);
        assert_eq!(cells.failed, 0);
        cells.judge(&report([0; 6]), Expect::SkewOnly, true);
        assert_eq!((cells.failed, cells.wrong), (1, 1));
        cells.judge(&report([0, 0, 0, 0, 1, 1]), Expect::SkewOnly, true);
        assert_eq!(cells.wrong, 2, "SI must not fail on skew-only input");

        let mut cells = Cells::default();
        cells.judge(&report([0, 0, 0, 1, 1, 1]), Expect::LongFork, true);
        assert_eq!((cells.attempted, cells.failed), (6, 0));
    }

    #[test]
    fn quick_mode_runs_one_round_and_scales_sizes() {
        let cfg = RunCfg { seed: 1, seconds: 60.0, traced: false, quick: true };
        let mut rounds = Rounds::new(&cfg, 3);
        assert_eq!(rounds.next_round(), Some(0));
        assert_eq!(rounds.next_round(), None);
        assert_eq!(cfg.scale(100_000), 5_000);
        assert_eq!(cfg.scale(4), 1);
        assert_eq!(cfg.txns(25_000), 1_252, "313 per session");

        let cfg = RunCfg { seconds: 0.0, quick: false, ..cfg };
        let mut rounds = Rounds::new(&cfg, 3);
        assert_eq!(
            [rounds.next_round(), rounds.next_round(), rounds.next_round()],
            [Some(0), Some(1), Some(2)]
        );
        assert_eq!(rounds.next_round(), None, "the minimum is met and the budget is spent");
        assert_eq!(cfg.scale(100_000), 100_000);
    }

    #[test]
    fn set_up_time_is_a_median_over_several_builds() {
        let mut out = Outcome::default();
        let mut builds = 0;
        let product = timed_setup(&mut out, || {
            builds += 1;
            builds
        });
        assert_eq!(product, builds);
        assert!(builds >= 5);
        assert_eq!(out.samples["setup_s"], builds);
        assert!(out.values["setup_s"] >= 0.0);
    }
}
