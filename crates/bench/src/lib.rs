//! Benchmark harness crate: the hand-rolled P/C/L trade-off bench lives in
//! `benches/tradeoffs.rs`.
//!
//! The build container has no registry access, so instead of Criterion the
//! benches use the tiny measurement harness in [`harness`]: warm-up, a fixed
//! sample count, and min/median/mean reporting.  The statistical machinery is
//! deliberately simple — these benches exist to make the *shape* of the P/C/L
//! trade-off visible (orders of magnitude, scaling direction), not to resolve
//! single-digit-percent regressions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness {
    //! A minimal sample-based measurement harness.

    use std::time::{Duration, Instant};

    /// Prevent the optimizer from deleting a benchmark's result.
    pub fn black_box<T>(value: T) -> T {
        std::hint::black_box(value)
    }

    /// Measured timings of one benchmark, in sample order.
    #[derive(Debug, Clone)]
    pub struct Samples {
        /// Name printed in the report line.
        pub name: String,
        /// Per-sample wall-clock durations.
        pub durations: Vec<Duration>,
    }

    impl Samples {
        /// Smallest sample.
        pub fn min(&self) -> Duration {
            self.durations.iter().copied().min().unwrap_or_default()
        }

        /// Median sample.
        pub fn median(&self) -> Duration {
            let mut sorted = self.durations.clone();
            sorted.sort();
            sorted.get(sorted.len() / 2).copied().unwrap_or_default()
        }

        /// Mean sample.
        pub fn mean(&self) -> Duration {
            if self.durations.is_empty() {
                return Duration::default();
            }
            self.durations.iter().sum::<Duration>() / self.durations.len() as u32
        }

        /// One-line human-readable report.
        pub fn report(&self) -> String {
            format!(
                "{:<60} min {:>12?}  median {:>12?}  mean {:>12?}",
                self.name,
                self.min(),
                self.median(),
                self.mean()
            )
        }
    }

    /// Discarded warm-up iterations before measuring: enough for caches,
    /// allocator arenas and branch predictors to settle (a single warm-up
    /// call left the first measured samples carrying cold-start cost, which
    /// polluted `mean_ns`), scaled down for tiny CI sample counts.
    fn warmup_iters(samples: usize) -> usize {
        (samples / 2).clamp(1, 3)
    }

    /// Run `f` `samples` times — after `warmup_iters` unmeasured warm-up
    /// calls — print the report line, and return the raw samples.
    pub fn bench<T>(name: &str, samples: usize, mut f: impl FnMut() -> T) -> Samples {
        for _ in 0..warmup_iters(samples) {
            black_box(f());
        }
        let durations = (0..samples.max(1))
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed()
            })
            .collect();
        let s = Samples { name: name.to_string(), durations };
        println!("{}", s.report());
        s
    }

    /// Run two variants of one benchmark with their samples interleaved
    /// (A, B, A, B, …) so slow machine-state drift — frequency scaling,
    /// cache temperature, background load — hits both variants equally.
    /// This is the honest way to measure a small overhead delta (e.g.
    /// metrics-on vs metrics-off): back-to-back pairs make `min`/`median`
    /// directly comparable, where two separately-run series would fold the
    /// minutes of drift between them into the delta.  Each variant gets one
    /// unmeasured warm-up call; both report lines print.
    pub fn bench_interleaved<T>(
        name_a: &str,
        mut a: impl FnMut() -> T,
        name_b: &str,
        mut b: impl FnMut() -> T,
        samples: usize,
    ) -> (Samples, Samples) {
        for _ in 0..warmup_iters(samples) {
            black_box(a());
            black_box(b());
        }
        let mut durations_a = Vec::with_capacity(samples.max(1));
        let mut durations_b = Vec::with_capacity(samples.max(1));
        for _ in 0..samples.max(1) {
            let start = Instant::now();
            black_box(a());
            durations_a.push(start.elapsed());
            let start = Instant::now();
            black_box(b());
            durations_b.push(start.elapsed());
        }
        let sa = Samples { name: name_a.to_string(), durations: durations_a };
        let sb = Samples { name: name_b.to_string(), durations: durations_b };
        println!("{}", sa.report());
        println!("{}", sb.report());
        (sa, sb)
    }

    /// Serialize a set of measured benchmarks as a machine-readable JSON
    /// document (the shape CI archives as a `BENCH_*.json` artifact so the
    /// perf trajectory accumulates data points across pushes).
    pub fn samples_to_json(all: &[Samples]) -> String {
        samples_to_json_annotated(all, &[])
    }

    /// [`samples_to_json`] with extra per-bench numeric fields: each
    /// `(bench_name, field, value)` annotation is spliced into the matching
    /// bench entry (this is how the trade-off benches attach derived
    /// figures like `scaling_efficiency` without changing the JSON shape
    /// consumers already parse).
    pub fn samples_to_json_annotated(
        all: &[Samples],
        annotations: &[(String, String, f64)],
    ) -> String {
        let mut out = String::from("{\"benches\":[");
        for (i, s) in all.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let samples: Vec<String> =
                s.durations.iter().map(|d| d.as_nanos().to_string()).collect();
            let extras: String = annotations
                .iter()
                .filter(|(name, _, _)| *name == s.name)
                .map(|(_, field, value)| {
                    format!(",\"{}\":{:.6}", tm_telemetry::json::escape(field), value)
                })
                .collect();
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"min_ns\":{},\"median_ns\":{},\"mean_ns\":{},\
                 \"samples_ns\":[{}]{}}}",
                tm_telemetry::json::escape(&s.name),
                s.min().as_nanos(),
                s.median().as_nanos(),
                s.mean().as_nanos(),
                samples.join(","),
                extras
            ));
        }
        out.push_str("]}");
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn samples_statistics_are_ordered_sanely() {
            let s = bench("unit-test-noop", 5, || 1 + 1);
            assert_eq!(s.durations.len(), 5);
            assert!(s.min() <= s.median());
            assert!(s.report().contains("unit-test-noop"));
        }

        #[test]
        fn samples_serialize_to_json() {
            let s = bench("json-noop", 3, || 2 + 2);
            let json = samples_to_json(&[s]);
            assert!(json.starts_with("{\"benches\":["), "{json}");
            assert!(json.contains("\"name\":\"json-noop\""), "{json}");
            assert!(json.contains("\"min_ns\":"), "{json}");
            assert!(json.contains("\"samples_ns\":["), "{json}");
        }

        #[test]
        fn bench_names_escape_through_the_shared_json_helper() {
            // Quotes in a bench name must survive as valid JSON escapes, not
            // get rewritten into apostrophes like the old hand-rolled writer.
            let s = Samples {
                name: "quoted \"name\" \\ tail".to_string(),
                durations: vec![Duration::from_nanos(5)],
            };
            let json = samples_to_json(&[s]);
            assert!(json.contains("\"name\":\"quoted \\\"name\\\" \\\\ tail\""), "{json}");
        }

        #[test]
        fn annotations_splice_into_the_matching_bench_entry() {
            let s = Samples { name: "fam/4".to_string(), durations: vec![Duration::from_nanos(8)] };
            let t = Samples { name: "fam/1".to_string(), durations: vec![Duration::from_nanos(4)] };
            let json = samples_to_json_annotated(
                &[s, t],
                &[("fam/4".to_string(), "scaling_efficiency".to_string(), 2.0)],
            );
            assert!(json.starts_with("{\"benches\":["), "{json}");
            assert!(json.contains("\"samples_ns\":[8],\"scaling_efficiency\":2.000000}"), "{json}");
            assert!(
                json.contains("\"name\":\"fam\\/1\"") || json.contains("\"name\":\"fam/1\""),
                "{json}"
            );
            assert!(
                !json.contains("[4],\"scaling_efficiency\""),
                "unmatched entries stay bare: {json}"
            );
        }
    }
}
