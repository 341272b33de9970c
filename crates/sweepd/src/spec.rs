//! Sweep specification and job expansion.
//!
//! A [`SweepSpec`] is the cross product of workload, size, and seed axes on
//! one config preset. Expansion dedupes jobs by [`JobSpec::key`] — the FNV-1a
//! of the normalized [`ccsvm::config_hash`] plus the full XC source — so two
//! axis points that compile to the identical simulation run once and share
//! one cache entry.

use ccsvm::{config_hash, ProtocolKind, SystemConfig};
use ccsvm_snap::fnv1a;
use ccsvm_workloads::{matmul, vecadd};

use crate::run::job_key;
use crate::SweepError;

/// Built-in workload generators the sweep axes can name.
const WORKLOADS: &[&str] = &["vecadd", "matmul", "wedge"];

/// A sweep: one preset and protocol, a workload × size × seed grid, and
/// the number of host threads that simulate its jobs.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Config preset name (`SystemConfig::by_preset`).
    pub preset: String,
    /// Coherence protocol the whole sweep runs under (DESIGN §13). Part of
    /// the job identity: it feeds the config hash, so the same axes under a
    /// different protocol are different jobs with different cache entries.
    pub protocol: ProtocolKind,
    /// Workload generator names (see [`source_for`] for the set).
    pub workloads: Vec<String>,
    /// Problem sizes (meaning is per-workload; `wedge` ignores it).
    pub sizes: Vec<u64>,
    /// Input seeds.
    pub seeds: Vec<u64>,
    /// Host threads simulating jobs (>= 1). Pacing only: the manifest is
    /// the same for every count.
    pub threads: usize,
}

impl Default for SweepSpec {
    fn default() -> SweepSpec {
        SweepSpec {
            preset: "tiny".into(),
            protocol: ProtocolKind::Directory,
            workloads: vec!["vecadd".into()],
            sizes: vec![64],
            seeds: vec![1],
            threads: 1,
        }
    }
}

/// One expanded, deduplicated job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Human label, `{workload}-n{size}-s{seed}` (first axis point to map
    /// to this key, when duplicates collapse).
    pub label: String,
    /// Identity: `fnv1a(config_hash(cfg) ‖ source)`, the key its report is
    /// cached under ([`job_key`]).
    pub key: u64,
    /// Full XC source for the job.
    pub source: String,
}

/// Generates the XC source for one axis point on a chip with
/// `mttop_threads` MTTOP contexts. `matmul` launches at most that many
/// threads (its grid-stride loop covers any `n`), so no size is refused by
/// the chip. `wedge` is a diagnostic workload that spins forever; on the
/// `tiny_brief` preset it hits `max_sim_time` and exits with a typed
/// `Outcome::Deadlock`, which makes it the canonical poison-path exerciser.
pub fn source_for(
    workload: &str,
    size: u64,
    seed: u64,
    mttop_threads: u64,
) -> Result<String, SweepError> {
    match workload {
        "vecadd" => Ok(vecadd::xthreads_source(&vecadd::VecaddParams {
            n: size,
            seed,
        })),
        "matmul" => Ok(matmul::xthreads_source(&matmul::MatmulParams {
            max_threads: mttop_threads,
            ..matmul::MatmulParams::new(size, seed)
        })),
        "wedge" => Ok("_CPU_ fn main() -> int {
                 let x = 0;
                 while (x < 1) { x = x * 1; }
                 return 0;
             }"
        .into()),
        other => Err(SweepError::Spec(format!(
            "unknown workload {other:?} (have {WORKLOADS:?})"
        ))),
    }
}

impl SweepSpec {
    /// A tag identifying the sweep's job universe, printed in the manifest
    /// header. `threads` is excluded: it changes pacing, never which jobs
    /// exist or what they compute.
    pub fn tag(&self) -> u64 {
        let mut buf = Vec::new();
        buf.extend_from_slice(self.preset.as_bytes());
        buf.push(0xfb);
        buf.extend_from_slice(self.protocol.as_str().as_bytes());
        for w in &self.workloads {
            buf.push(0xfe);
            buf.extend_from_slice(w.as_bytes());
        }
        for &n in &self.sizes {
            buf.push(0xfd);
            buf.extend_from_slice(&n.to_le_bytes());
        }
        for &s in &self.seeds {
            buf.push(0xfc);
            buf.extend_from_slice(&s.to_le_bytes());
        }
        fnv1a(&buf)
    }

    /// The `SystemConfig` every job of this sweep runs under.
    pub fn config(&self) -> Result<SystemConfig, SweepError> {
        let mut cfg = SystemConfig::by_preset(&self.preset)
            .ok_or_else(|| SweepError::Spec(format!("unknown preset {:?}", self.preset)))?;
        cfg.protocol = self.protocol;
        Ok(cfg)
    }

    /// Expands the axes into deduplicated jobs (stable spec order) plus the
    /// labels of axis points that collapsed into an earlier job.
    pub fn expand(&self) -> Result<(Vec<JobSpec>, Vec<String>), SweepError> {
        if self.workloads.is_empty() || self.sizes.is_empty() || self.seeds.is_empty() {
            return Err(SweepError::Spec("empty axis".into()));
        }
        let cfg = self.config()?;
        let cfg_hash = config_hash(&cfg);
        let mut jobs: Vec<JobSpec> = Vec::new();
        let mut dups = Vec::new();
        for w in &self.workloads {
            for &size in &self.sizes {
                // vecadd launches one MTTOP thread per element; the chip
                // refuses a launch wider than its contexts and `main`
                // returns -1, which must not be cached as a result.
                if w == "vecadd" && size > cfg.mttop_threads() {
                    return Err(SweepError::Spec(format!(
                        "vecadd size {size} exceeds preset {:?}'s {} MTTOP threads",
                        self.preset,
                        cfg.mttop_threads()
                    )));
                }
                for &seed in &self.seeds {
                    let label = format!("{w}-n{size}-s{seed}");
                    let source = source_for(w, size, seed, cfg.mttop_threads())?;
                    let key = job_key(cfg_hash, &source);
                    if jobs.iter().any(|j| j.key == key) {
                        dups.push(label);
                    } else {
                        jobs.push(JobSpec { label, key, source });
                    }
                }
            }
        }
        Ok((jobs, dups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_dedupes_by_key() {
        let spec = SweepSpec {
            preset: "tiny".into(),
            workloads: vec!["wedge".into()],
            sizes: vec![8, 16], // wedge ignores size -> identical source
            seeds: vec![1, 2],  // and seed
            ..SweepSpec::default()
        };
        let (jobs, dups) = spec.expand().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(dups.len(), 3);
        assert_eq!(jobs[0].label, "wedge-n8-s1");
    }

    #[test]
    fn distinct_points_get_distinct_keys() {
        let spec = SweepSpec {
            workloads: vec!["vecadd".into(), "matmul".into()],
            sizes: vec![8, 16],
            seeds: vec![3],
            ..SweepSpec::default()
        };
        let (jobs, dups) = spec.expand().unwrap();
        assert_eq!(jobs.len(), 4);
        assert!(dups.is_empty());
        let mut keys: Vec<u64> = jobs.iter().map(|j| j.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn bad_axes_are_typed_errors() {
        let mut spec = SweepSpec {
            workloads: vec!["no-such".into()],
            ..SweepSpec::default()
        };
        assert!(matches!(spec.expand(), Err(SweepError::Spec(_))));
        spec.workloads = vec![];
        assert!(matches!(spec.expand(), Err(SweepError::Spec(_))));
        spec.workloads = vec!["vecadd".into()];
        spec.preset = "no-such".into();
        assert!(matches!(spec.expand(), Err(SweepError::Spec(_))));
    }

    #[test]
    fn vecadd_wider_than_the_chip_is_refused() {
        let mut spec = SweepSpec {
            sizes: vec![64],
            ..SweepSpec::default()
        };
        assert!(spec.expand().is_ok(), "tiny has 64 MTTOP threads");
        spec.sizes = vec![65];
        match spec.expand() {
            Err(SweepError::Spec(msg)) => {
                assert!(msg.contains("65") && msg.contains("64"), "{msg}");
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn protocol_is_part_of_the_job_identity() {
        let a = SweepSpec::default();
        let b = SweepSpec {
            protocol: ProtocolKind::Dragon,
            ..SweepSpec::default()
        };
        assert_ne!(a.tag(), b.tag(), "protocol must change the manifest tag");
        let (ja, _) = a.expand().unwrap();
        let (jb, _) = b.expand().unwrap();
        assert_ne!(ja[0].key, jb[0].key, "protocol must split the cache key");
        assert_eq!(b.config().unwrap().protocol, ProtocolKind::Dragon);
    }

    #[test]
    fn tag_tracks_axes_not_policy() {
        let a = SweepSpec::default();
        let mut b = SweepSpec {
            threads: 7,
            ..SweepSpec::default()
        };
        assert_eq!(a.tag(), b.tag());
        b.sizes = vec![65];
        assert_ne!(a.tag(), b.tag());
    }
}
