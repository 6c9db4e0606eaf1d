//! The open-loop arrival schedule, fixed before the run starts.
//!
//! An open loop sends on a schedule regardless of how the system is doing,
//! so the schedule must not depend on anything observed during the run: it
//! is generated up front from the seed, and every latency is taken from the
//! arrival's *due* time, which charges a stalled generator or a full window
//! to the lookups it delayed.

use std::time::Duration;

use rand::Rng;

/// `count` arrival offsets inside `[0, span)`, ascending: exponential gaps
/// scaled so that exactly `count` arrivals fall in the span (a Poisson
/// process conditioned on its count). Fixing the count keeps the offered
/// rate identical across seeds while the gaps still vary.
pub fn poisson_offsets<R: Rng + ?Sized>(
    rng: &mut R,
    count: usize,
    span: Duration,
) -> Vec<Duration> {
    // count + 1 gaps: the last one runs from the final arrival to the end
    // of the span, so no arrival sits exactly on the boundary.
    let gaps: Vec<f64> = (0..=count)
        .map(|_| {
            let unit: f64 = rng.gen_range(0.0..1.0);
            -(1.0 - unit).ln()
        })
        .collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    gaps[..count]
        .iter()
        .map(|gap| {
            at += gap;
            span.mul_f64(at / total)
        })
        .collect()
}

/// Arrival offsets for a warm-up segment followed by a measured segment,
/// each holding exactly `rate × its length` arrivals. Returns the offsets
/// and how many of them belong to the warm-up.
pub fn open_loop_offsets<R: Rng + ?Sized>(
    rng: &mut R,
    rate_per_s: f64,
    warmup: Duration,
    measured: Duration,
) -> (Vec<Duration>, usize) {
    let count = |span: Duration| (rate_per_s * span.as_secs_f64()).round() as usize;
    let mut offsets = poisson_offsets(rng, count(warmup), warmup);
    let warm = offsets.len();
    offsets.extend(
        poisson_offsets(rng, count(measured), measured)
            .into_iter()
            .map(|at| warmup + at),
    );
    (offsets, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn offsets_are_ascending_inside_the_span_and_exact_in_count() {
        let span = Duration::from_secs(3);
        let offsets = poisson_offsets(&mut StdRng::seed_from_u64(1), 600, span);
        assert_eq!(offsets.len(), 600);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(offsets.iter().all(|at| *at < span));
        assert!(offsets[0] > Duration::ZERO);
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let span = Duration::from_secs(1);
        let a = poisson_offsets(&mut StdRng::seed_from_u64(7), 100, span);
        let b = poisson_offsets(&mut StdRng::seed_from_u64(7), 100, span);
        let c = poisson_offsets(&mut StdRng::seed_from_u64(8), 100, span);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gaps_are_exponential_not_uniform() {
        // For exponential gaps the standard deviation equals the mean; a
        // fixed-interval schedule would have none.
        let span = Duration::from_secs(10);
        let offsets = poisson_offsets(&mut StdRng::seed_from_u64(3), 20_000, span);
        let gaps: Vec<f64> = offsets
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 10.0 / 20_000.0).abs() / mean < 0.02, "mean {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.05,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn warmup_and_measured_segments_hold_their_own_counts() {
        let (offsets, warm) = open_loop_offsets(
            &mut StdRng::seed_from_u64(5),
            2_000.0,
            Duration::from_millis(500),
            Duration::from_secs(2),
        );
        assert_eq!(warm, 1_000);
        assert_eq!(offsets.len(), 5_000);
        assert!(offsets[..warm]
            .iter()
            .all(|at| *at < Duration::from_millis(500)));
        assert!(offsets[warm..]
            .iter()
            .all(|at| *at >= Duration::from_millis(500) && *at < Duration::from_millis(2_500)));
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    }
}
