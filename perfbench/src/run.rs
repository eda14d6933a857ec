//! What one workload run produces, and the line protocol child
//! processes use to hand it back.

use std::collections::BTreeMap;

/// How a workload run is sized and observed.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Smallest meaningful size (self-tests and traced-run probes).
    pub tiny: bool,
    /// Record spans and per-call timings for per-layer metrics.
    pub traced: bool,
}

/// Per-layer metrics: name → (value, unit).
pub type Layers = BTreeMap<String, (f64, &'static str)>;

/// The outcome of one measurement window of a workload.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// Operations attempted (sessions, shards, requests, experiments).
    pub attempted: u64,
    /// Operations that failed or whose checked output was wrong.
    pub failed: u64,
    /// Units of work completed per second at reference host speed.
    pub work_per_s: f64,
    /// Units of work completed per second of wall time.
    pub wall_work_per_s: f64,
    /// Host speed over the run (see [`crate::calib`]); 0 when the
    /// workload does not calibrate.
    pub host_speed: f64,
    /// Per-operation latencies in milliseconds at reference host speed.
    pub latency_ms: Vec<f64>,
    /// Peak RSS of the processes that did the work, when not this one.
    pub child_rss_mb: f64,
    /// Per-layer metrics.
    pub layers: Layers,
}

impl Run {
    /// Records a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.insert(name.into(), (value, unit));
    }

    /// Serializes for a parent process, one item per line.
    pub fn to_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "attempted {}", self.attempted);
        let _ = writeln!(out, "failed {}", self.failed);
        let _ = writeln!(out, "work_per_s {:?}", self.work_per_s);
        let _ = writeln!(out, "wall_work_per_s {:?}", self.wall_work_per_s);
        let _ = writeln!(out, "host_speed {:?}", self.host_speed);
        let _ = writeln!(
            out,
            "rss {:?}",
            crate::probe::peak_rss_mb().max(self.child_rss_mb)
        );
        for l in &self.latency_ms {
            let _ = writeln!(out, "lat {l:?}");
        }
        for (name, (value, unit)) in &self.layers {
            let _ = writeln!(out, "layer {name} {value:?} {unit}");
        }
        out
    }

    /// Parses [`Run::to_lines`] output (unknown lines are ignored).
    pub fn from_lines(text: &str) -> Result<Run, String> {
        let mut run = Run::default();
        let mut seen = false;
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let (Some(key), Some(value)) = (parts.next(), parts.next()) else {
                continue;
            };
            let num = || -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .map_err(|e| format!("bad {key} value {value:?}: {e}"))
            };
            match key {
                "attempted" => {
                    run.attempted = num()? as u64;
                    seen = true;
                }
                "failed" => run.failed = num()? as u64,
                "work_per_s" => run.work_per_s = num()?,
                "wall_work_per_s" => run.wall_work_per_s = num()?,
                "host_speed" => run.host_speed = num()?,
                "rss" => run.child_rss_mb = num()?,
                "lat" => run.latency_ms.push(num()?),
                "layer" => {
                    let v = parts.next().ok_or("layer line without value")?;
                    let unit = crate::unit(parts.next().unwrap_or(""));
                    let v = v
                        .parse::<f64>()
                        .map_err(|e| format!("bad layer {value}: {e}"))?;
                    run.layers.insert(value.to_owned(), (v, unit));
                }
                _ => {}
            }
        }
        if seen {
            Ok(run)
        } else {
            Err("child printed no result".to_owned())
        }
    }
}

/// Runs `role` in fresh child processes, one after another, until the
/// window is over (at least once).
pub fn repeat_in_children(role: &str, workload: &str, cfg: &Cfg) -> Result<Run, String> {
    let started = std::time::Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
        let out = spawn_self(&crate::child_args(role, workload, cfg))?;
        runs.push(Run::from_lines(&out)?);
    }
    Ok(merge(runs))
}

/// Folds repetitions of identical work, one per process: counts add,
/// throughput, host speed and layer values take the median, latencies
/// pool.
fn merge(runs: Vec<Run>) -> Run {
    let median_of = |f: fn(&Run) -> f64| {
        let mut values: Vec<f64> = runs.iter().map(f).collect();
        crate::probe::median(&mut values)
    };
    let mut out = Run {
        work_per_s: median_of(|r| r.work_per_s),
        wall_work_per_s: median_of(|r| r.wall_work_per_s),
        host_speed: median_of(|r| r.host_speed),
        ..Run::default()
    };
    let mut keys: Vec<(String, &'static str)> = Vec::new();
    for r in &runs {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.latency_ms.extend_from_slice(&r.latency_ms);
        out.child_rss_mb = out.child_rss_mb.max(r.child_rss_mb);
        for (k, (_, unit)) in &r.layers {
            if !keys.iter().any(|(key, _)| key == k) {
                keys.push((k.clone(), unit));
            }
        }
    }
    for (k, unit) in keys {
        let mut vals: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.layers.get(&k))
            .map(|v| v.0)
            .collect();
        out.layer(k, crate::probe::median(&mut vals), unit);
    }
    out
}

/// Runs this executable as a child with `args`, waits for it, and
/// returns its standard output.
pub fn spawn_self(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(args)
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
                .lines()
                .last()
                .unwrap_or("")
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))
}
