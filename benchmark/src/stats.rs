//! Order statistics over raw samples. Every percentile the benchmark
//! reports is an exact order statistic of the samples it took, never a
//! histogram bucket edge, and the sample count is printed beside it.

/// Samples a percentile needs before the benchmark will report it: ten
/// samples must lie beyond it, so p90 needs 100 and p99 needs 1,000.
pub const P90_MIN_SAMPLES: usize = 100;
/// See [`P90_MIN_SAMPLES`].
pub const P99_MIN_SAMPLES: usize = 1_000;

/// Why a percentile was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PercentileError {
    /// No samples at all.
    Empty,
    /// Fewer samples than the percentile needs.
    TooFewSamples { have: usize, need: usize },
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle order statistic, or the mean of the two middle
/// ones for an even count.
pub fn median(samples: &[f64]) -> Result<f64, PercentileError> {
    if samples.is_empty() {
        return Err(PercentileError::Empty);
    }
    let v = sorted(samples);
    let n = v.len();
    Ok(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` in (0, 100], refused below `min_samples`.
fn nearest_rank(samples: &[f64], p: f64, min_samples: usize) -> Result<f64, PercentileError> {
    if samples.is_empty() {
        return Err(PercentileError::Empty);
    }
    if samples.len() < min_samples {
        return Err(PercentileError::TooFewSamples {
            have: samples.len(),
            need: min_samples,
        });
    }
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Ok(v[rank.clamp(1, v.len()) - 1])
}

/// p90, refused below 100 samples.
pub fn p90(samples: &[f64]) -> Result<f64, PercentileError> {
    nearest_rank(samples, 90.0, P90_MIN_SAMPLES)
}

/// p99, refused below 1,000 samples.
pub fn p99(samples: &[f64]) -> Result<f64, PercentileError> {
    nearest_rank(samples, 99.0, P99_MIN_SAMPLES)
}

/// The highest percentile the sample count supports, with its label:
/// p99 from 1,000 samples, p90 from 100, the median below that.
pub fn highest_supported(samples: &[f64]) -> Result<(u32, f64), PercentileError> {
    if let Ok(v) = p99(samples) {
        return Ok((99, v));
    }
    if let Ok(v) = p90(samples) {
        return Ok((90, v));
    }
    median(samples).map(|v| (50, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_is_the_middle_order_statistic() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(median(&[]), Err(PercentileError::Empty));
    }

    #[test]
    fn p90_is_refused_below_100_samples() {
        assert_eq!(
            p90(&ramp(99)),
            Err(PercentileError::TooFewSamples {
                have: 99,
                need: 100
            })
        );
        assert_eq!(p90(&ramp(100)), Ok(90.0));
    }

    #[test]
    fn p99_is_refused_below_1000_samples() {
        assert_eq!(
            p99(&ramp(999)),
            Err(PercentileError::TooFewSamples {
                have: 999,
                need: 1_000
            })
        );
        assert_eq!(p99(&ramp(1_000)), Ok(990.0));
    }

    #[test]
    fn highest_supported_follows_the_sample_count() {
        assert_eq!(highest_supported(&ramp(7)), Ok((50, 4.0)));
        assert_eq!(highest_supported(&ramp(100)), Ok((90, 90.0)));
        assert_eq!(highest_supported(&ramp(2_000)), Ok((99, 1_980.0)));
    }
}
