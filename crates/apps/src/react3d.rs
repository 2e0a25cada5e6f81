//! 3D-REACT: the task-parallel metacomputer application of §2.2–2.3.
//!
//! The code computes quantum reactive scattering for H + D₂ ⇒ HD + D
//! in two coupled tasks: a local-hyperspherical-surface-function
//! calculation (LHSF, vectorizes beautifully — it ran on the SDSC Cray
//! C90) feeding a logarithmic-derivative propagation plus asymptotic
//! analysis (Log-D/ASY — it ran on the CalTech Delta/Paragon). The
//! problem is "subdivided into smaller subdomains of 5 to 20 surface
//! functions per subdomain so that the LHSF task and Log-D tasks may be
//! executed concurrently, and the communication latency between them
//! may be masked".
//!
//! The constants below are calibrated so the simulated system
//! reproduces the paper's §2.3 measurements in *shape*:
//!
//! * either machine alone takes **over 16 hours** (the C90 cannot hold
//!   both tasks in memory and pages; the Paragon runs LHSF at a small
//!   fraction of peak because the algorithm does not parallelize),
//! * the pipelined two-machine schedule finishes in **under 5 hours**,
//! * the best pipeline size lands in the paper's 5–20
//!   surface-function range: smaller units pay per-message data
//!   conversion (Cray ↔ Paragon floating-point formats, §2.2), larger
//!   units lose overlap.

use apples::hat::{ArchEfficiency, Hat, PipelineTemplate};
use apples::schedule::PipelineSchedule;
use metasim::exec::{simulate_pipeline, simulate_single_site, PipelineOutcome};
use metasim::host::HostSpec;
use metasim::net::{LinkSpec, TopologyBuilder};
use metasim::simtrace::NoopSink;
use metasim::{HostId, SimError, SimTime, Topology};

/// Total surface functions in a production-size run.
pub const TOTAL_SURFACE_FUNCTIONS: usize = 520;
/// LHSF work per surface function, Mflop.
pub const LHSF_MFLOP_PER_SF: f64 = 6150.0;
/// Log-D/ASY work per surface function, Mflop.
pub const LOGD_MFLOP_PER_SF: f64 = 6920.0;
/// Data shipped per surface function, MB.
pub const MB_PER_SF: f64 = 2.0;
/// Cross-format data conversion charged per message, Mflop (§2.2:
/// "the floating point format of each data point had to be converted").
pub const CONVERT_MFLOP_PER_MESSAGE: f64 = 2000.0;

/// The C90's nominal vector speed, Mflop/s.
pub const C90_MFLOPS: f64 = 450.0;
/// C90 memory available to the application, MB (§2.2: not enough to
/// run both tasks together).
pub const C90_MEM_MB: f64 = 300.0;
/// Aggregate speed of the 64-node Paragon partition, Mflop/s.
pub const PARAGON_MFLOPS: f64 = 576.0;
/// Paragon partition memory, MB.
pub const PARAGON_MEM_MB: f64 = 512.0;

/// The HAT for 3D-REACT.
pub fn react3d_hat() -> Hat {
    Hat::pipeline(
        "3d-react",
        PipelineTemplate {
            total_units: TOTAL_SURFACE_FUNCTIONS,
            producer_mflop_per_unit: LHSF_MFLOP_PER_SF,
            consumer_mflop_per_unit: LOGD_MFLOP_PER_SF,
            mb_per_unit: MB_PER_SF,
            producer_resident_mb: 200.0,
            consumer_base_mb: 160.0,
            consumer_mb_per_buffered_unit: 0.4,
            convert_mflop_per_message: CONVERT_MFLOP_PER_MESSAGE,
            // LHSF is a vector code: full speed on the Cray, a small
            // fraction of peak on the message-passing Paragon.
            producer_efficiency: ArchEfficiency {
                rules: vec![("c90".into(), 1.0), ("paragon".into(), 0.1)],
                default_efficiency: 0.3,
            },
            // Log-D has per-machine implementations (§2.3): vector on
            // the Cray, parallel on the Paragon.
            consumer_efficiency: ArchEfficiency {
                rules: vec![("c90".into(), 1.0), ("paragon".into(), 0.8)],
                default_efficiency: 0.3,
            },
        },
    )
}

/// The CASA testbed slice 3D-REACT ran on: the SDSC C90 and the
/// CalTech Paragon joined by a dedicated HiPPI-SONET link. Both
/// machines are dedicated during the run (§2.3: the application
/// "required completely dedicated access to both ... while it
/// executed").
#[derive(Debug, Clone)]
pub struct CasaTestbed {
    /// The instantiated system.
    pub topo: Topology,
    /// The SDSC Cray C90.
    pub c90: HostId,
    /// The CalTech Paragon partition.
    pub paragon: HostId,
}

/// Build the CASA testbed.
pub fn casa_testbed(seed: u64) -> Result<CasaTestbed, SimError> {
    let mut b = TopologyBuilder::new();
    let sdsc = b.add_segment(LinkSpec::dedicated(
        "sdsc-hippi",
        80.0,
        SimTime::from_micros(50),
    ));
    let caltech = b.add_segment(LinkSpec::dedicated(
        "caltech-hippi",
        80.0,
        SimTime::from_micros(50),
    ));
    let sonet = b.add_link(LinkSpec::dedicated(
        "hippi-sonet-wan",
        12.0,
        SimTime::from_millis(10),
    ));
    b.add_route(sdsc, caltech, vec![sonet])?;

    let mut c90_spec = HostSpec::dedicated("sdsc-c90", C90_MFLOPS, C90_MEM_MB, sdsc);
    c90_spec.paging_slowdown = 20.0;
    let c90 = b.add_host(c90_spec);
    let mut par_spec =
        HostSpec::dedicated("caltech-paragon", PARAGON_MFLOPS, PARAGON_MEM_MB, caltech);
    par_spec.paging_slowdown = 20.0;
    let paragon = b.add_host(par_spec);

    let topo = b.instantiate(SimTime::from_secs(1_000_000), seed)?;
    Ok(CasaTestbed { topo, c90, paragon })
}

/// Run the distributed pipeline (LHSF on the C90, Log-D on the
/// Paragon) with the given pipeline size (surface functions per
/// subdomain) and depth.
pub fn distributed_run(
    tb: &CasaTestbed,
    unit_size: usize,
    depth: usize,
) -> Result<PipelineOutcome, apples::ApplesError> {
    let hat = react3d_hat();
    let t = hat.as_pipeline().expect("pipeline HAT");
    let sched = PipelineSchedule {
        producer: tb.c90,
        consumer: tb.paragon,
        unit_size,
        depth,
    };
    let job = sched.to_pipeline_job(t, "sdsc-c90", "caltech-paragon", SimTime::ZERO)?;
    Ok(simulate_pipeline(&tb.topo, &job, &mut NoopSink)?)
}

/// Run the whole application on a single machine (the §2.3 single-site
/// baseline). On the C90 the two tasks' combined resident set exceeds
/// memory and the run pages; on the Paragon the LHSF phase crawls at a
/// tenth of peak.
pub fn single_site_run(tb: &CasaTestbed, host: HostId) -> Result<SimTime, apples::ApplesError> {
    let hat = react3d_hat();
    let t = hat.as_pipeline().expect("pipeline HAT");
    let name = tb.topo.host(host)?.spec.name.clone();
    // Single-site still processes one subdomain at a time; batching of
    // 10 SF keeps the comparison honest.
    let sched = PipelineSchedule {
        producer: host,
        consumer: host,
        unit_size: 10,
        depth: 1,
    };
    let job = sched.to_pipeline_job(t, &name, &name, SimTime::ZERO)?;
    Ok(simulate_single_site(&tb.topo, host, &job)?)
}

/// Sweep pipeline sizes, returning `(unit_size, makespan_seconds)` per
/// candidate — the data behind the §2.3 pipeline-size tradeoff.
pub fn sweep_pipeline_sizes(
    tb: &CasaTestbed,
    unit_sizes: &[usize],
    depth: usize,
) -> Result<Vec<(usize, f64)>, apples::ApplesError> {
    let mut out = Vec::with_capacity(unit_sizes.len());
    for &u in unit_sizes {
        let run = distributed_run(tb, u, depth)?;
        out.push((u, run.makespan(SimTime::ZERO).as_secs_f64()));
    }
    Ok(out)
}

/// Depth-sweep record: how the pipeline bound trades producer blocking
/// against consumer buffering.
#[derive(Debug, Clone)]
pub struct DepthPoint {
    /// Pipeline depth (batches in flight).
    pub depth: usize,
    /// Makespan in seconds.
    pub makespan_s: f64,
    /// Seconds the producer was blocked on the depth bound.
    pub producer_block_s: f64,
    /// Seconds the consumer stalled waiting for data.
    pub consumer_stall_s: f64,
}

/// Sweep pipeline depths at a fixed unit size — the §2.3 "buffering
/// performance cost" axis: depth 1 serializes adjacent batches, large
/// depths grow the consumer's resident buffer.
pub fn sweep_pipeline_depths(
    tb: &CasaTestbed,
    unit_size: usize,
    depths: &[usize],
) -> Result<Vec<DepthPoint>, apples::ApplesError> {
    let mut out = Vec::with_capacity(depths.len());
    for &depth in depths {
        let run = distributed_run(tb, unit_size, depth)?;
        out.push(DepthPoint {
            depth,
            makespan_s: run.makespan(SimTime::ZERO).as_secs_f64(),
            producer_block_s: run.producer_block_seconds,
            consumer_stall_s: run.consumer_stall_seconds,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: f64 = 3600.0;

    #[test]
    fn single_site_exceeds_sixteen_hours_on_both_machines() {
        let tb = casa_testbed(0).unwrap();
        let c90 = single_site_run(&tb, tb.c90).unwrap().as_secs_f64();
        let par = single_site_run(&tb, tb.paragon).unwrap().as_secs_f64();
        assert!(c90 > 16.0 * HOUR, "C90 single-site: {:.1} h", c90 / HOUR);
        assert!(
            par > 16.0 * HOUR,
            "Paragon single-site: {:.1} h",
            par / HOUR
        );
    }

    #[test]
    fn distributed_run_is_under_five_hours() {
        let tb = casa_testbed(0).unwrap();
        let run = distributed_run(&tb, 10, 4).unwrap();
        let hours = run.makespan(SimTime::ZERO).as_secs_f64() / HOUR;
        assert!(hours < 5.0, "distributed: {hours:.2} h");
    }

    #[test]
    fn best_pipeline_size_is_in_the_papers_range() {
        let tb = casa_testbed(0).unwrap();
        let sweep = sweep_pipeline_sizes(&tb, &[1, 2, 5, 10, 20, 65, 130, 260], 4).unwrap();
        let best = sweep.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert!(
            (2..=20).contains(&best.0),
            "optimum pipeline size {} outside the expected range; sweep: {sweep:?}",
            best.0
        );
    }

    #[test]
    fn tiny_units_pay_conversion_overhead() {
        let tb = casa_testbed(0).unwrap();
        let sweep = sweep_pipeline_sizes(&tb, &[1, 10], 4).unwrap();
        assert!(
            sweep[0].1 > sweep[1].1,
            "unit=1 ({}) should be slower than unit=10 ({})",
            sweep[0].1,
            sweep[1].1
        );
    }

    #[test]
    fn huge_units_lose_overlap() {
        let tb = casa_testbed(0).unwrap();
        let sweep = sweep_pipeline_sizes(&tb, &[10, 520], 4).unwrap();
        assert!(
            sweep[1].1 > sweep[0].1,
            "unit=520 ({}) should be slower than unit=10 ({})",
            sweep[1].1,
            sweep[0].1
        );
    }

    #[test]
    fn depth_one_blocks_the_producer_hardest() {
        let tb = casa_testbed(0).unwrap();
        let sweep = sweep_pipeline_depths(&tb, 10, &[1, 2, 4, 8]).unwrap();
        // Blocking falls monotonically with depth.
        for w in sweep.windows(2) {
            assert!(
                w[1].producer_block_s <= w[0].producer_block_s + 1e-6,
                "{sweep:?}"
            );
        }
        // And the makespan never gets worse with more depth here
        // (consumer memory stays within bounds at unit 10).
        for w in sweep.windows(2) {
            assert!(w[1].makespan_s <= w[0].makespan_s + 1e-6);
        }
    }

    #[test]
    fn speedup_over_best_single_site_exceeds_three() {
        let tb = casa_testbed(0).unwrap();
        let best_single = single_site_run(&tb, tb.c90)
            .unwrap()
            .as_secs_f64()
            .min(single_site_run(&tb, tb.paragon).unwrap().as_secs_f64());
        let dist = distributed_run(&tb, 10, 4)
            .unwrap()
            .makespan(SimTime::ZERO)
            .as_secs_f64();
        assert!(
            best_single / dist > 3.0,
            "speedup {:.2}",
            best_single / dist
        );
    }
}
