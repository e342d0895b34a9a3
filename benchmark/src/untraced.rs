//! The untraced pass: every end-to-end metric, measured with all
//! instrumentation off, plus the output checks.

use crate::round::{run_round, Round, StepPlan};
use crate::stats::{median, tail};
use crate::workloads::{Workload, LR};
use serial::SerialModel;

/// Steps of round 1 whose loss is compared with the serial model.
pub const SERIAL_CHECK_STEPS: usize = 3;
/// Largest relative loss difference from the serial model that passes.
const SERIAL_RTOL: f32 = 1e-3;

pub const MIB: f64 = (1u64 << 20) as f64;

/// How much one workload measures.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Fresh mesh + model this many times; each is one `setup_s` sample.
    pub rounds: usize,
    /// Timed seconds per workload, split evenly over the rounds; `None`
    /// fixes five steps per round (`--quick`).
    pub seconds: Option<f64>,
}

const QUICK_STEPS: usize = 5;

/// The rounds one workload ran, checked.
pub struct Rounds {
    pub workload: &'static Workload,
    pub rounds: Vec<Round>,
    /// Largest per-device peak of live tensor bytes, from a round run with
    /// the `metrics` registry on.
    pub peak_bytes: u64,
    /// Steps run (warm-up steps excluded) and how many of them failed.
    pub attempted: usize,
    pub failed: usize,
    /// One line per failed check, naming round, step and rank.
    pub failures: Vec<String>,
}

/// Reference losses of the first `steps` steps (warm-up first) from the
/// single-device model on the same seed and data.
pub fn serial_losses(w: &Workload, seed: u64, steps: usize) -> Vec<f32> {
    let mut model = SerialModel::new(w.model, seed);
    (0..steps)
        .map(|i| {
            let (tokens, labels) = w.batch(seed, i);
            model.train_step(&tokens, &labels, LR)
        })
        .collect()
}

/// Runs the untraced pass over `workloads`, interleaving their rounds
/// (A, B, …, A, B, …) so slow drift of the machine hits all of them alike.
pub fn run(workloads: &[&'static Workload], seed: u64, effort: Effort) -> Vec<Rounds> {
    let mut rounds: Vec<Vec<Round>> = workloads.iter().map(|_| Vec::new()).collect();
    for r in 0..effort.rounds {
        for (w, done) in workloads.iter().zip(&mut rounds) {
            let plan = match effort.seconds {
                None => StepPlan::Fixed(QUICK_STEPS),
                Some(secs) => StepPlan::Budget {
                    // What earlier rounds left over goes to the later ones.
                    secs: (secs - done.iter().flat_map(|d: &Round| &d.step_s).sum::<f64>())
                        / (effort.rounds - r) as f64,
                    est_step_s: done.last().map(|d| median(&d.step_s)),
                },
            };
            done.push(run_round(w, seed, plan, false));
        }
    }
    workloads
        .iter()
        .zip(rounds)
        .map(|(w, rounds)| {
            // Memory needs the registry on, so it gets a short round of its
            // own: the peak is reached within the first two steps.
            let peak_bytes = run_round(w, seed, StepPlan::Fixed(1), true).peak_bytes();
            let serial = serial_losses(w, seed, SERIAL_CHECK_STEPS + 1);
            Rounds::checked(w, rounds, peak_bytes, &serial)
        })
        .collect()
}

impl Rounds {
    /// Applies the output checks to `rounds`. `serial[i]` is the reference
    /// loss of step `i` (warm-up at 0), compared in round 1.
    pub fn checked(
        workload: &'static Workload,
        rounds: Vec<Round>,
        peak_bytes: u64,
        serial: &[f32],
    ) -> Rounds {
        let mut r = Rounds {
            workload,
            rounds,
            peak_bytes,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };
        r.check(serial);
        r
    }

    fn check(&mut self, serial: &[f32]) {
        let name = self.workload.name;
        for (r, round) in self.rounds.iter().enumerate() {
            let rank0 = &round.losses[0];
            for (i, &loss) in rank0.iter().enumerate().skip(1) {
                self.attempted += 1;
                let mut why = None;
                if !loss.is_finite() {
                    why = Some(format!("rank 0 loss {loss} is not finite"));
                } else if let Some(rank) = (1..round.losses.len())
                    .find(|&k| round.losses[k][i].to_bits() != loss.to_bits())
                {
                    why = Some(format!(
                        "rank {rank} loss {} differs from rank 0 loss {loss}",
                        round.losses[rank][i]
                    ));
                } else if r == 0 && i < serial.len() {
                    let rel = (loss - serial[i]).abs() / serial[i].abs();
                    if rel > SERIAL_RTOL {
                        why = Some(format!(
                            "loss {loss} differs from serial loss {} by {rel:.2e} relative",
                            serial[i]
                        ));
                    }
                }
                if let Some(why) = why {
                    self.failed += 1;
                    self.failures
                        .push(format!("{name} round {} step {i}: {why}", r + 1));
                }
            }
            let (first, last) = (rank0[1], rank0[rank0.len() - 1]);
            if last.partial_cmp(&first) != Some(std::cmp::Ordering::Less) {
                self.failures.push(format!(
                    "{name} round {}: loss did not fall ({first} -> {last})",
                    r + 1
                ));
            }
            // Same seed, same data: rounds must agree bit for bit as far as
            // both ran.
            let base = &self.rounds[0].losses[0];
            if let Some(i) =
                (0..rank0.len().min(base.len())).find(|&i| rank0[i].to_bits() != base[i].to_bits())
            {
                self.failures.push(format!(
                    "{name} round {} step {i}: loss {} differs from round 1 loss {}",
                    r + 1,
                    rank0[i],
                    base[i]
                ));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Every timed step of every round, seconds.
    pub fn step_s(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.step_s.iter().copied())
            .collect()
    }

    /// The end-to-end metrics in `report::END_TO_END` order.
    pub fn metrics(&self) -> Vec<f64> {
        let steps = self.step_s();
        let link_elems: usize = self.rounds.iter().map(Round::link_elems).sum();
        let setups: Vec<f64> = self.rounds.iter().map(|r| r.setup_s).collect();
        // Mean-based within a round, so slow steps count; the median round,
        // so one burst of neighbour load does not decide the run.
        let tokens_per_s: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| {
                (r.step_s.len() * self.workload.tokens_per_step()) as f64
                    / r.step_s.iter().sum::<f64>()
            })
            .collect();
        vec![
            median(&steps) * 1e3,
            median(&tokens_per_s),
            (link_elems * 4) as f64 / MIB / steps.len() as f64,
            self.peak_bytes as f64 / MIB,
            median(&setups),
        ]
    }

    /// The highest percentile of the step time with ten samples beyond it.
    pub fn step_tail_ms(&self) -> Option<(u32, f64)> {
        tail(&self.step_s()).map(|(pct, s)| (pct, s * 1e3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::PoolDelta;
    use crate::workloads::WORKLOADS;

    fn round(losses: Vec<Vec<f32>>) -> Round {
        let n = losses[0].len() - 1;
        Round {
            spawn_s: 0.0,
            build_s: 0.0,
            setup_s: 1.0,
            step_s: vec![0.5; n],
            losses,
            logs: Vec::new(),
            pool: PoolDelta::default(),
            peak_live_microbatches: 1,
            spans: Vec::new(),
            devices: Vec::new(),
        }
    }

    fn checked(rounds: Vec<Round>, serial: &[f32]) -> Rounds {
        Rounds::checked(&WORKLOADS[0], rounds, 0, serial)
    }

    #[test]
    fn clean_rounds_pass_every_check() {
        let l = vec![5.0, 4.0, 3.0, 2.0];
        let u = checked(
            vec![
                round(vec![l.clone(), l.clone()]),
                round(vec![l.clone(), l.clone()]),
            ],
            &[5.0, 4.0, 3.0],
        );
        assert!(u.correct(), "{:?}", u.failures);
        assert_eq!((u.attempted, u.failed), (6, 0));
        assert_eq!(u.metrics()[0], 500.0);
    }

    #[test]
    fn each_rule_names_its_step_and_rank() {
        let good = vec![5.0, 4.0, 3.0, 2.0];
        // Rank 1 disagrees at step 2.
        let u = checked(
            vec![round(vec![good.clone(), vec![5.0, 4.0, 3.5, 2.0]])],
            &[5.0, 4.0, 3.0],
        );
        assert_eq!(u.failed, 1);
        assert!(u.failures[0].contains("step 2") && u.failures[0].contains("rank 1"));
        // Non-finite loss.
        let u = checked(vec![round(vec![vec![5.0, f32::NAN, 3.0, 2.0]])], &[]);
        assert!(u.failures[0].contains("not finite"));
        // Off the serial reference at step 1.
        let u = checked(vec![round(vec![good.clone()])], &[5.0, 4.1]);
        assert!(u.failures[0].contains("serial"));
        // Loss rises.
        let u = checked(vec![round(vec![vec![5.0, 2.0, 3.0]])], &[]);
        assert!(u.failures.iter().any(|f| f.contains("did not fall")));
        assert_eq!(u.failed, 0);
        // Round 2 departs from round 1.
        let u = checked(
            vec![
                round(vec![good.clone()]),
                round(vec![vec![5.0, 4.0, 2.5, 2.0]]),
            ],
            &[],
        );
        assert!(u.failures.iter().any(|f| f.contains("round 2 step 2")));
    }
}
