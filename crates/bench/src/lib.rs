//! # dvfs-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (Section V), shared by the `table1`/`table2`/`fig1`/
//! `fig2`/`fig3`/`experiments` binaries, the integration tests, and the
//! Criterion benches.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod format;

pub use experiments::{run_fig1, run_fig2, run_fig3, CostRow, Fig1Result, Fig2Result, Fig3Result};

/// Numeric field `key` of the committed `file` (a flat `BENCH_*.json`
/// object at the repository root), or `None` when either is missing.
/// The CI bench smokes gate against these baselines and never write
/// them: a baseline moves only by a deliberate commit.
#[must_use]
pub fn committed_baseline(file: &str, key: &str) -> Option<f64> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join(file)).ok()?;
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = &text[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Map `f` over `items` on up to `available_parallelism` scoped
/// threads, one contiguous chunk each, returning results in input order
/// (the seed sweeps print in seed order).
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let chunk_len = items.len().div_ceil(threads).max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::{committed_baseline, par_map};

    #[test]
    fn committed_baselines_are_readable() {
        let ratio = committed_baseline("BENCH_rebalance.json", "cost_improvement");
        assert!(ratio.is_some_and(|r| r > 0.0), "got {ratio:?}");
        assert_eq!(
            committed_baseline("BENCH_rebalance.json", "no_such_key"),
            None
        );
        assert_eq!(
            committed_baseline("BENCH_missing.json", "cost_improvement"),
            None
        );
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(par_map(&items, |x| x * 2), expect);
        assert!(par_map(&[] as &[u64], |x| *x).is_empty());
        assert_eq!(par_map(&[7u64], |x| x + 1), vec![8]);
    }
}
