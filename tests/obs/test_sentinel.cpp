// EWMA regression sentinel (obs/sentinel.hpp): quiet on stationary and
// short series, flags steps and slow drifts, respects the warm-up window
// and the sigma floor.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/sentinel.hpp"
#include "util/prng.hpp"

namespace {

using sks::obs::sentinel_check;
using sks::obs::SentinelFinding;
using sks::obs::SentinelOptions;
using sks::obs::SentinelVerdict;

// Deterministic stationary noise around `mean` with stddev `sigma`.
std::vector<double> noise_series(std::size_t n, double mean, double sigma,
                                 std::uint64_t seed) {
  sks::util::Prng prng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(mean + sigma * prng.normal());
  }
  return out;
}

TEST(ObsSentinel, ShortSeriesStaysQuiet) {
  SentinelOptions opt;
  opt.warmup = 5;
  // A history no longer than the warm-up window has no baseline to chart
  // against — exactly the checked-in seed history's situation.
  for (std::size_t n = 0; n <= 5; ++n) {
    const SentinelFinding f =
        sentinel_check("m", noise_series(n, 10.0, 1.0, 1), opt);
    EXPECT_EQ(f.verdict, SentinelVerdict::kOk) << "n=" << n;
    EXPECT_EQ(f.runs, n);
  }
}

TEST(ObsSentinel, StationaryFalseAlarmRateIsLow) {
  SentinelOptions opt;
  // A 3-sigma chart has a finite in-control alarm rate (ARL0 ~ hundreds
  // of points), and the 5-run warm-up sigma estimate is itself noisy —
  // so over 20 seeds x 25 charted points demand a LOW false-alarm count,
  // not zero.  (The fixed seeds keep the count deterministic.)
  int alarms = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const SentinelFinding f =
        sentinel_check("m", noise_series(30, 100.0, 2.0, seed), opt);
    if (f.verdict != SentinelVerdict::kOk) ++alarms;
  }
  EXPECT_LE(alarms, 3) << "stationary noise flagged " << alarms
                       << "/20 series — the chart is far too jumpy";
}

TEST(ObsSentinel, DeterministicConstantSeriesStaysQuiet) {
  // Bit-identical counters repeat exactly; the sigma floor keeps the band
  // nonzero so this must not flag (and must not divide by zero).
  const std::vector<double> series(12, 1310.0);
  const SentinelFinding f = sentinel_check("m", series, {});
  EXPECT_EQ(f.verdict, SentinelVerdict::kOk);
  EXPECT_GT(f.baseline_sigma, 0.0);
}

TEST(ObsSentinel, FlagsStepChange) {
  // Stable at 100, then one run jumps 3.5 sigma-floors up: inside a loose
  // hard-gate window, but a step the chart must catch immediately.
  std::vector<double> series = noise_series(10, 100.0, 1.0, 7);
  series.push_back(100.0 + 3.5 * 1.0 * 3.0);  // >> k*sigma above the EWMA
  const SentinelFinding f = sentinel_check("m", series, {});
  EXPECT_EQ(f.verdict, SentinelVerdict::kStep);
  EXPECT_EQ(f.runs, series.size());
}

TEST(ObsSentinel, FlagsSlowDriftInsideShewhartBand) {
  // +0.4 sigma per run: every single observation stays inside the 3-sigma
  // Shewhart band for a long while, but the EWMA leaves its (much
  // tighter) control band — the case the hard gate cannot see.
  SentinelOptions opt;
  std::vector<double> series = noise_series(8, 100.0, 2.0, 11);
  double level = 100.0;
  sks::util::Prng prng(12);
  SentinelVerdict verdict = SentinelVerdict::kOk;
  for (int i = 0; i < 20 && verdict == SentinelVerdict::kOk; ++i) {
    level += 0.4 * 2.0;
    series.push_back(level + 2.0 * prng.normal());
    verdict = sentinel_check("m", series, opt).verdict;
  }
  EXPECT_EQ(verdict, SentinelVerdict::kDrift);
  // ...and the drift must be caught while each raw value is still within
  // ~3 sigma of the *previous* EWMA (otherwise it would be a step).
  const SentinelFinding f = sentinel_check("m", series, opt);
  EXPECT_GT(f.ewma, f.band_hi);
}

TEST(ObsSentinel, WarmupWindowSetsTheBaseline) {
  // First 5 runs at 10, the rest at 14: with warmup=5 the baseline is 10
  // and the chart flags; with warmup=10 the shifted runs pollute the
  // baseline and the (by then stationary) series is quiet.
  std::vector<double> series;
  for (int i = 0; i < 5; ++i) series.push_back(10.0);
  for (int i = 0; i < 10; ++i) series.push_back(14.0);
  SentinelOptions narrow;
  narrow.warmup = 5;
  EXPECT_NE(sentinel_check("m", series, narrow).verdict,
            SentinelVerdict::kOk);
  SentinelOptions wide;
  wide.warmup = 10;
  EXPECT_EQ(sentinel_check("m", series, wide).verdict,
            SentinelVerdict::kOk);
}

TEST(ObsSentinel, BandScalesWithKAndLambda) {
  std::vector<double> series = noise_series(10, 50.0, 1.0, 3);
  for (int i = 0; i < 6; ++i) series.push_back(52.5);  // ~2.5 sigma level
  SentinelOptions strict;
  strict.k = 2.0;
  const SentinelFinding tight = sentinel_check("m", series, strict);
  EXPECT_NE(tight.verdict, SentinelVerdict::kOk);
  SentinelOptions loose;
  loose.k = 20.0;
  EXPECT_EQ(sentinel_check("m", series, loose).verdict,
            SentinelVerdict::kOk);
  // Larger lambda -> wider EWMA band (sqrt(lambda/(2-lambda)) grows).
  SentinelOptions lo_lambda;
  lo_lambda.lambda = 0.1;
  SentinelOptions hi_lambda;
  hi_lambda.lambda = 0.9;
  const SentinelFinding narrow = sentinel_check("m", series, lo_lambda);
  const SentinelFinding wide = sentinel_check("m", series, hi_lambda);
  EXPECT_LT(narrow.band_hi - narrow.band_lo, wide.band_hi - wide.band_lo);
}

}  // namespace
