//! Measurement helpers that know nothing about tempograph: order
//! statistics, the output digest, `/proc` readers, the span recorder and
//! the `key=value` lines children report to the orchestrator.

use std::collections::BTreeMap;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between the two
/// nearest ranks (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `|a - b|` as a share of the smaller magnitude (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / base
    }
}

/// Largest [`rel_diff`] over all pairs of `values`, which must share a
/// sign: the extremes are then the worst pair.
pub fn max_pairwise_rel_diff(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() {
        0.0
    } else {
        rel_diff(lo, hi)
    }
}

/// Streaming FNV-1a (64-bit) over little-endian words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The output digest: FNV-1a over the `(timestep, vertex, value bits)`
/// triples sorted ascending, then over the `(name, total)` counter pairs
/// sorted by name.
pub fn output_digest(mut emitted: Vec<(u64, u64, u64)>, counters: &BTreeMap<String, u64>) -> u64 {
    emitted.sort_unstable();
    let mut h = Fnv::new();
    h.u64(emitted.len() as u64);
    for (t, v, bits) in emitted {
        h.u64(t);
        h.u64(v);
        h.u64(bits);
    }
    for (name, total) in counters {
        h.bytes(name.as_bytes());
        h.u64(*total);
    }
    h.finish()
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture this benchmark runs on; `sysconf`
/// is not reachable without a libc binding.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of a process *and* the children it has waited
/// for, from the text of `/proc/<pid>/stat`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; fields
    // are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // rest[0] is field 3 (state); utime, stime, cutime, cstime are 14–17.
    let ticks: u64 = (11..=14)
        .map(|i| f.get(i)?.parse::<u64>().ok())
        .sum::<Option<u64>>()?;
    Some(ticks as f64 / TICKS_PER_S)
}

/// A `kB` field (`VmHWM`, `VmRSS`, …) of `/proc/<pid>/status`, in MB (10⁶ B).
pub fn parse_status_mb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// CPU seconds of this process and its reaped children so far.
pub fn self_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// This process's peak resident set so far, MB.
pub fn self_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_mb(&s, "VmHWM"))
        .expect("/proc/self/status has a VmHWM line on Linux")
}

/// One recorded span. Times are nanoseconds on the wall clock (Unix
/// epoch), so spans recorded by different processes line up.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Name of the span that caused this one ("" at the root).
    pub parent: String,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder for the benchmark's own files: one per process,
/// written out only when the benchmark ends.
pub struct Spans {
    origin: Instant,
    origin_unix_ns: u64,
    open: Vec<(String, u64)>,
    pub done: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        let origin_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock is after 1970")
            .as_nanos() as u64;
        Spans {
            origin: Instant::now(),
            origin_unix_ns,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Now, in the recorder's time base.
    pub fn now_ns(&self) -> u64 {
        self.origin_unix_ns + self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under whichever span is
    /// open.
    pub fn record<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let start = self.now_ns();
        self.open.push((name.to_string(), start));
        let out = f(self);
        self.open.pop();
        let parent = self.open.last().map_or(String::new(), |(n, _)| n.clone());
        self.done.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: self.now_ns(),
            parent,
        });
        out
    }
}

/// The lines a child process reports on its standard output: `key=value`
/// facts and `span=name\tstart\tend\tparent` records.
#[derive(Default)]
pub struct Report {
    pub facts: BTreeMap<String, String>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn parse(text: &str) -> Report {
        let mut r = Report::default();
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            if key == "span" {
                let f: Vec<&str> = value.split('\t').collect();
                if let [name, start, end, parent] = f[..] {
                    if let (Ok(start_ns), Ok(end_ns)) = (start.parse(), end.parse()) {
                        r.spans.push(Span {
                            name: name.to_string(),
                            start_ns,
                            end_ns,
                            parent: parent.to_string(),
                        });
                    }
                }
            } else {
                r.facts.insert(key.to_string(), value.to_string());
            }
        }
        r
    }

    /// A numeric fact (`None` when absent or not a number).
    pub fn num(&self, key: &str) -> Option<f64> {
        self.facts.get(key)?.parse().ok()
    }
}

/// Print one fact line.
pub fn emit(key: &str, value: impl std::fmt::Display) {
    println!("{key}={value}");
}

/// Print the recorder's spans as report lines.
pub fn emit_spans(spans: &Spans) {
    for s in &spans.done {
        println!(
            "span={}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.parent
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert!((quantile(&v, 0.95) - 48.0).abs() < 1e-9);
    }

    #[test]
    fn relative_difference() {
        assert_eq!(rel_diff(1.0, 1.0), 0.0);
        assert!((rel_diff(1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((rel_diff(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(0.0, 1.0), f64::INFINITY);
        assert!((max_pairwise_rel_diff(&[1.0, 1.05, 1.2]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn digest_ignores_emit_order_and_sees_every_field() {
        let mut counters = BTreeMap::new();
        counters.insert("c".to_string(), 5u64);
        let a = output_digest(vec![(0, 1, 2), (0, 0, 9)], &counters);
        let b = output_digest(vec![(0, 0, 9), (0, 1, 2)], &counters);
        assert_eq!(a, b);
        assert_ne!(a, output_digest(vec![(0, 0, 9), (0, 1, 3)], &counters));
        assert_ne!(a, output_digest(vec![(0, 0, 9)], &counters));
        counters.insert("c".to_string(), 6);
        assert_ne!(a, output_digest(vec![(0, 1, 2), (0, 0, 9)], &counters));
        // FNV-1a reference vector: "a" -> 0xaf63dc4c8601ec8c.
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn proc_stat_with_hostile_command_name() {
        let stat = "4242 (perf) bench (x)) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    150 25 300 50 20 0 3 0 100 1000000 200 18446744073709551615";
        // utime 150 + stime 25 + cutime 300 + cstime 50 = 525 ticks.
        assert_eq!(parse_stat_cpu_s(stat), Some(5.25));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2"), None);
    }

    #[test]
    fn proc_status_field() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  2000 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(2.048));
        assert_eq!(parse_status_mb(status, "VmRSS"), Some(1.024));
        assert_eq!(parse_status_mb(status, "Vm"), None);
        assert_eq!(parse_status_mb(status, "VmSwap"), None);
    }

    #[test]
    fn spans_nest_and_round_trip_through_a_report() {
        let mut s = Spans::new();
        s.record("outer", |s| s.record("inner", |_| ()));
        assert_eq!(s.done[0].name, "inner");
        assert_eq!(s.done[0].parent, "outer");
        assert_eq!(s.done[1].parent, "");
        assert!(s.done[1].start_ns <= s.done[0].start_ns);
        assert!(s.done[0].end_ns <= s.done[1].end_ns);
        let text = format!(
            "noise\nwall_s=1.5\nspan=inner\t{}\t{}\touter\n",
            s.done[0].start_ns, s.done[0].end_ns
        );
        let r = Report::parse(&text);
        assert_eq!(r.num("wall_s"), Some(1.5));
        assert_eq!(r.num("missing"), None);
        assert_eq!(r.spans, vec![s.done[0].clone()]);
    }
}
