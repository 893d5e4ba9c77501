//! Order statistics, digests, and facts about the host a result came from.

use std::fmt::Write;
use std::path::Path;
use tabular::Value;
use uctr::Sample;

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `values` ascending and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// The highest quantile, at most `cap`, that leaves at least ten
/// observations above it; 0.5 when there are too few for any tail.
pub fn tail_quantile(n: usize, cap: f64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    cap.min(1.0 - 10.0 / n as f64)
}

/// FNV-1a, 64 bit: a stable digest of output bytes across builds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a sample list: every field, and every cell of every evidence
/// table. A structural walk rather than the JSON form, so samples over
/// 10k-row tables cost milliseconds to digest.
pub fn samples_digest<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Digest {
    let mut d = Digest::default();
    let mut buf = String::new();
    for s in samples {
        buf.clear();
        let _ = write!(
            buf,
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|",
            s.text, s.context, s.label, s.evidence, s.program, s.answer_kind, s.topic
        );
        d.update(buf.as_bytes());
        let t = &s.table;
        d.update(t.title.as_bytes());
        for c in 0..t.n_cols() {
            d.update(t.column_name(c).unwrap_or_default().as_bytes());
            d.update(&[0xff]);
        }
        for cell in t.rows().iter().flatten() {
            match cell {
                Value::Null => d.update(&[0]),
                Value::Bool(b) => d.update(&[1, u8::from(*b)]),
                Value::Number(x) => {
                    d.update(&[2]);
                    d.update(&x.to_bits().to_le_bytes());
                }
                Value::Date(x) => {
                    d.update(&[3, x.month, x.day]);
                    d.update(&x.year.to_le_bytes());
                }
                Value::Text(text) => {
                    d.update(&[4]);
                    d.update(text.as_bytes());
                    d.update(&[0xff]);
                }
            }
        }
    }
    d
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when unknown.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a result needs to be compared with another one.
pub struct Host {
    pub nproc: usize,
    pub cpus_online: usize,
    pub commit: String,
    pub seconds: u64,
}

impl Host {
    pub fn collect(seconds: u64) -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host { nproc, cpus_online: cpus_online().unwrap_or(nproc), commit: commit(), seconds }
    }

    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpus_online={} commit={} run_seconds={}",
            self.nproc, self.cpus_online, self.commit, self.seconds
        )
    }
}

/// CPUs the kernel reports online, regardless of any CPU quota.
fn cpus_online() -> Option<usize> {
    let mask = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    let mut count = 0;
    for range in mask.trim().split(',') {
        count += match range.split_once('-') {
            Some((lo, hi)) => hi.parse::<usize>().ok()? + 1 - lo.parse::<usize>().ok()?,
            None => 1,
        };
    }
    Some(count)
}

/// The git commit when the checkout is a repository, else a digest of the
/// sources the benchmark builds against (`src:` prefix).
fn commit() -> String {
    if Path::new(".git").exists() {
        if let Some(hash) = git_head() {
            return hash;
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor"] {
        collect_files(Path::new(root), &mut files);
    }
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut d = Digest::default();
    for f in &files {
        d.update(f.to_string_lossy().as_bytes());
        d.update(&std::fs::read(f).unwrap_or_default());
    }
    format!("src:{}", &d.hex()[..12])
}

fn git_head() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let hash = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !hash.is_empty()).then_some(hash)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml" || e == "txt") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        assert_eq!(tail_quantile(200, 0.99), 0.95);
        assert_eq!(tail_quantile(10, 0.99), 0.5);
    }
}
