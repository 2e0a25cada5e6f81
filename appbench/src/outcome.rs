//! Outcome checks over the job records of every regime run: a digest
//! that must repeat across runs of one build, structural invariants,
//! and the simulated-time outcome metrics.

use crate::workload::RegimeRun;
use apples_grid::JobRecord;

/// FNV-1a over a canonical rendering of every record of every run.
/// Floats enter by bit pattern, so any change in an outcome shows.
pub fn digest(runs: &[RegimeRun]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for run in runs {
        eat(run.regime.name().as_bytes());
        for r in &run.records {
            eat(&(r.id as u64).to_le_bytes());
            eat(r.kind.as_bytes());
            for t in [r.submit, r.start, r.finish] {
                eat(&t.0.to_le_bytes());
            }
            for host in &r.hosts {
                eat(host.as_bytes());
                eat(&[0]);
            }
            for v in [r.wait_seconds, r.exec_seconds, r.slowdown] {
                eat(&v.to_bits().to_le_bytes());
            }
            eat(&r.attempts.to_le_bytes());
            eat(&r.reschedules.to_le_bytes());
            eat(&[u8::from(r.completed)]);
        }
    }
    h
}

/// Every submitted job has exactly one record, and a completed job's
/// times are ordered and finite.
pub fn check(runs: &[RegimeRun], jobs: usize) -> Result<(), String> {
    for run in runs {
        let name = run.regime.name();
        let mut ids: Vec<usize> = run.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        if ids != (0..jobs).collect::<Vec<_>>() {
            return Err(format!(
                "{name}: records do not cover jobs 0..{jobs} once each"
            ));
        }
        if let Some(r) = run.records.iter().find(|r| r.completed && !sane(r)) {
            return Err(format!("{name}: job {} has inconsistent times", r.id));
        }
    }
    Ok(())
}

fn sane(r: &JobRecord) -> bool {
    r.submit <= r.start
        && r.start <= r.finish
        && r.wait_seconds.is_finite()
        && r.exec_seconds.is_finite()
        && r.wait_seconds >= 0.0
        && r.exec_seconds > 0.0
}

/// Wait + execution of every completed job, pooled over the runs.
pub fn turnarounds(runs: &[RegimeRun]) -> Vec<f64> {
    runs.iter()
        .flat_map(|run| run.records.iter())
        .filter(|r| r.completed)
        .map(|r| r.wait_seconds + r.exec_seconds)
        .collect()
}

/// Median by the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}
