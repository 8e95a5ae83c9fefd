/**
 * @file
 * Fast transcendental functions for model inference.
 *
 * The serving hot path evaluates hundreds of tanh activations per
 * prediction; libm's tanh is accurate to < 1 ulp but costs ~20 ns per
 * call on commodity hardware, which caps ensemble serving throughput
 * well below the design target. fastTanh() trades that last digit for
 * a ~3x cheaper evaluation: a piecewise cubic Hermite interpolant of
 * tanh on |x| < 4 (absolute error below 5e-9, orders of magnitude
 * under the predictors' own model error) with an exact exp-based tail.
 *
 * The interpolant is defined inline so the batched forward passes can
 * inline it per lane: an out-of-line call per activation serialises
 * the lanes' otherwise independent evaluation chains and was the
 * largest single cost of the batch kernels.
 */

#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "base/simd.hh"

namespace acdse
{

/**
 * Whether the MLP activation is fastTanh (the default) or std::tanh
 * exactly (configure with -DACDSE_FAST_TANH=OFF).
 */
#ifdef ACDSE_NO_FAST_TANH
inline constexpr bool kFastTanh = false;
#else
inline constexpr bool kFastTanh = true;
#endif

namespace detail
{

/** Cubic Hermite coefficients for one tanh interval, in t = x - x0. */
struct TanhSegment
{
    double f;   //!< tanh(x0)
    double d;   //!< tanh'(x0)
    double c2;  //!< quadratic coefficient
    double c3;  //!< cubic coefficient
};

constexpr std::size_t kTanhSegments = 256;
// A power-of-two step (1/64) lets the segment lookup multiply by the
// exactly-representable reciprocal instead of dividing -- a divide is
// the single most expensive operation in the interpolant, and with 10
// activations per network forward pass it was the hot path's largest
// serial-latency contributor. x * 64.0 and x / 0.015625 round
// identically in IEEE-754, so this is a pure speedup.
constexpr double kTanhTableLimit = 4.0;
constexpr double kTanhStep =
    kTanhTableLimit / static_cast<double>(kTanhSegments);
constexpr double kTanhInvStep =
    static_cast<double>(kTanhSegments) / kTanhTableLimit;
static_assert(kTanhStep * kTanhInvStep == 1.0,
              "table step must be an exact power of two");

/**
 * The interpolation table, built from std::tanh on first use (a magic
 * static, so initialisation is thread-safe and the table is immutable
 * afterwards). Matching values *and* derivatives at every node keeps
 * the maximum error of each cubic at h^4/384 * max|tanh''''| ~ 6e-10.
 */
inline const std::array<TanhSegment, kTanhSegments> &
tanhTable()
{
    static const std::array<TanhSegment, kTanhSegments> segments = [] {
        std::array<TanhSegment, kTanhSegments> t{};
        for (std::size_t k = 0; k < kTanhSegments; ++k) {
            const double x0 = static_cast<double>(k) * kTanhStep;
            const double x1 = x0 + kTanhStep;
            const double f0 = std::tanh(x0);
            const double f1 = std::tanh(x1);
            const double d0 = 1.0 - f0 * f0;
            const double d1 = 1.0 - f1 * f1;
            const double slope = (f1 - f0) / kTanhStep;
            t[k].f = f0;
            t[k].d = d0;
            t[k].c2 = (3.0 * slope - 2.0 * d0 - d1) / kTanhStep;
            t[k].c3 = (d0 + d1 - 2.0 * slope) / (kTanhStep * kTanhStep);
        }
        return t;
    }();
    return segments;
}

/**
 * Beyond this magnitude tanh rounds to +/-1 in double precision, and
 * both the scalar and the packed tail saturate.
 */
constexpr double kTanhSaturate = 19.0625;

/** Out-of-line |x| >= 4 tail of fastTanh: the libm-exp identity. */
double fastTanhTail(double x);

} // namespace detail

/**
 * tanh(x) to ~5e-9 absolute accuracy over all of R.
 *
 * |x| < 4 is served from a 256-interval cubic Hermite table built from
 * std::tanh at first use (step 1/64, a power of two, so the segment
 * lookup is a multiply, not a divide); larger magnitudes fall back to
 * the exact identity tanh(x) = (1 - e^{-2|x|}) / (1 + e^{-2|x|}), and
 * |x| >= 19.0625 saturates to +/-1 (tanh is 1 to double precision
 * there). Odd symmetry is exact: fastTanh(-x) == -fastTanh(x).
 *
 * The tail is not rare. Over the training runs of the pipebench
 * workloads (real campaign rows, T = 128 and 512), 37-69% of the
 * pre-activations lie outside the table (weights grow as SGD sharpens
 * the fit), and 36-45% of all of them take the exp identity rather
 * than saturating. This scalar function is the reference;
 * fastTanhChunk below serves the tail packed, with the same bits.
 */
inline double
fastTanh(double x)
{
    const double ax = std::fabs(x);
    if (ax < detail::kTanhTableLimit) [[likely]] {
        const double u = ax * detail::kTanhInvStep;
        const auto k = static_cast<std::size_t>(u);
        const double t = (u - static_cast<double>(k)) * detail::kTanhStep;
        const detail::TanhSegment &s = detail::tanhTable()[k];
        const double p = s.f + t * (s.d + t * (s.c2 + t * s.c3));
        return std::copysign(p, x);
    }
    return detail::fastTanhTail(x);
}

namespace detail
{

/** Integer view of a Chunk for IEEE sign-bit manipulation. */
typedef std::int64_t ChunkBits
    __attribute__((vector_size(sizeof(simd::Chunk))));
/** Unsigned view of a Chunk, for logical shifts of its bits. */
typedef std::uint64_t ChunkUBits
    __attribute__((vector_size(sizeof(simd::Chunk))));
/** One int32 per chunk lane, for the segment indices. */
typedef std::int32_t ChunkIdx
    __attribute__((vector_size(simd::kChunkLanes * sizeof(std::int32_t))));

/**
 * Gather each lane's segment coefficients into four lane-parallel
 * vectors. A template on the vector type so the two-lane
 * shuffle-transpose specialisation below only type-checks at the
 * width it is written for (`if constexpr` in a non-template function
 * still checks the discarded branch).
 */
template <typename V>
inline void
gatherSegments(const ChunkIdx k, V &fv, V &dv, V &c2v, V &c3v)
{
    constexpr std::size_t n = sizeof(V) / sizeof(double);
    if constexpr (n == 2) {
        // Gather the two coefficient pairs of each lane's segment with
        // vector loads and transpose with shuffles -- scattering them
        // through a scalar array costs a failed store-forward per load.
        const TanhSegment &s0 = tanhTable()[static_cast<std::size_t>(k[0])];
        const TanhSegment &s1 = tanhTable()[static_cast<std::size_t>(k[1])];
        V fd0;
        V fd1;
        V cc0;
        V cc1;
        __builtin_memcpy(&fd0, &s0.f, sizeof fd0);
        __builtin_memcpy(&fd1, &s1.f, sizeof fd1);
        __builtin_memcpy(&cc0, &s0.c2, sizeof cc0);
        __builtin_memcpy(&cc1, &s1.c2, sizeof cc1);
        fv = __builtin_shufflevector(fd0, fd1, 0, 2);
        dv = __builtin_shufflevector(fd0, fd1, 1, 3);
        c2v = __builtin_shufflevector(cc0, cc1, 0, 2);
        c3v = __builtin_shufflevector(cc0, cc1, 1, 3);
    } else {
        for (std::size_t l = 0; l < n; ++l) {
            const TanhSegment &s =
                tanhTable()[static_cast<std::size_t>(k[l])];
            fv[l] = s.f;
            dv[l] = s.d;
            c2v[l] = s.c2;
            c3v[l] = s.c3;
        }
    }
}

/** The table interpolant per lane; every lane must hold 0 <= ax < 4. */
inline simd::Chunk
tanhTableChunk(simd::Chunk ax)
{
    const simd::Chunk u = ax * kTanhInvStep;
    const ChunkIdx k = __builtin_convertvector(u, ChunkIdx);
    const simd::Chunk t =
        (u - __builtin_convertvector(k, simd::Chunk)) * kTanhStep;
    simd::Chunk fv;
    simd::Chunk dv;
    simd::Chunk c2v;
    simd::Chunk c3v;
    gatherSegments(k, fv, dv, c2v, c3v);
    return fv + t * (dv + t * (c2v + t * c3v));
}

constexpr std::size_t kExp2Steps = 64;

/** exp2(j / 64) for j in [0, 64), built at first use like tanhTable(). */
inline const std::array<double, kExp2Steps> &
exp2Table()
{
    static const std::array<double, kExp2Steps> table = [] {
        std::array<double, kExp2Steps> t{};
        for (std::size_t j = 0; j < kExp2Steps; ++j)
            t[j] = std::exp2(static_cast<double>(j) /
                             static_cast<double>(kExp2Steps));
        return t;
    }();
    return table;
}

/**
 * exp(-2 ax) per lane for 4 <= ax < 19.0625: -2 ax = (64 m + j) ln2/64
 * + r with |r| <= ln2/128, so the result is 2^m * exp2(j/64) *
 * (1 + q(r)), q the degree-5 Taylor polynomial of exp(r) - 1.
 * Measured over 10M arguments of that range, it lies within 1.3 ulp of
 * the true value and within 1 ulp of glibc's exp (itself within 0.51
 * ulp). Other lanes return garbage but stay memory-safe (the table
 * index is masked to 6 bits).
 */
inline simd::Chunk
expNeg2Chunk(simd::Chunk ax)
{
    // 1.5 * 2^52: adding it rounds to an integer held in the low
    // mantissa bits (Cody-Waite reduction); ln2/64 split so n * hi is
    // exact for every n this range produces.
    constexpr double kShift = 0x1.8p52;
    constexpr double kInvLn2x64 = 0x1.71547652b82fep6;
    constexpr double kLn2By64Hi = 0x1.62e42fee00000p-7;
    constexpr double kLn2By64Lo = 0x1.a39ef35793c76p-39;
    constexpr std::uint64_t kShiftBits = 0x4338000000000000ULL;
    constexpr std::uint64_t kBias = 64 * 1023;
    const simd::Chunk y = ax * -2.0;
    const simd::Chunk kn = y * kInvLn2x64 + kShift;
    const simd::Chunk n = kn - kShift;
    const simd::Chunk r = (y - n * kLn2By64Hi) - n * kLn2By64Lo;
    // u = n + 64 * 1023 > 0, so u >> 6 = m + 1023 (the biased exponent
    // of 2^m) and u & 63 = j, with logical shifts only.
    const ChunkUBits u = (ChunkUBits)kn - (kShiftBits - kBias);
    const auto scale = (simd::Chunk)((u >> 6) << 52);
    simd::Chunk tj;
    for (std::size_t l = 0; l < simd::kChunkLanes; ++l)
        tj[l] = exp2Table()[u[l] & (kExp2Steps - 1)];
    const simd::Chunk q =
        r * (1.0 + r * (1.0 / 2 +
                        r * (1.0 / 6 + r * (1.0 / 24 + r * (1.0 / 120)))));
    return (tj + tj * q) * scale;
}

/** Per-lane select: a where the mask lane is all-ones, else b. */
inline simd::Chunk
chunkSelect(ChunkBits mask, simd::Chunk a, simd::Chunk b)
{
    return (simd::Chunk)((mask & (ChunkBits)a) | (~mask & (ChunkBits)b));
}

/** True if every lane of the comparison mask is set. */
inline bool
allLanes(ChunkBits mask)
{
    std::int64_t all = mask[0];
    for (std::size_t l = 1; l < simd::kChunkLanes; ++l)
        all &= mask[l];
    return all != 0;
}

} // namespace detail

/**
 * fastTanh on one machine vector, element-wise identical to the scalar
 * function (enforced by tests/test_fast_math.cc).
 *
 * Table lanes (|x| < 4) run each step of the scalar interpolant (abs,
 * scale, truncate, interpolate, copysign) as the per-lane IEEE
 * operation, issued packed; only the segment lookups stay scalar --
 * the baseline ISA has no gather. Saturated lanes (|x| >= 19.0625,
 * infinities included) return copysign(1, x), as the scalar tail does.
 *
 * Exp-tail lanes compute e ~ exp(-2|x|) packed (expNeg2Chunk, at most
 * 2 ulp from libm's exp by the two error bounds, 1 ulp measured) and
 * keep (1 - e) / (1 + e) only where that is provably what libm's e
 * gives: 1 - e and 1 + e must each round to one double across all of
 * e * (1 +/- 2^-47), an interval 16 times wider than the error bound.
 * Rounding is monotonic, so libm's e, which lies inside it, rounds
 * both terms to those same doubles and the quotient is bit-equal.
 * Lanes that fail the check (~0.2% of tail arguments, those whose
 * 1 +/- e sits next to a rounding boundary) and NaN lanes take scalar
 * fastTanh.
 */
inline simd::Chunk
fastTanhChunk(simd::Chunk x)
{
    using detail::ChunkBits;
    const ChunkBits signBit = (ChunkBits)simd::chunkBroadcast(-0.0);
    const auto ax = (simd::Chunk)((ChunkBits)x & ~signBit); // |x|
    const auto withSign = [&](simd::Chunk magnitude) {
        // copysign(magnitude, x) per lane.
        return (simd::Chunk)(((ChunkBits)magnitude & ~signBit) |
                             ((ChunkBits)x & signBit));
    };
    // Lane-wise compares yield all-ones/all-zero int lanes; NaN
    // compares false everywhere, so it is never "done".
    const ChunkBits onTable =
        ax < simd::chunkBroadcast(detail::kTanhTableLimit);
    if (detail::allLanes(onTable)) [[likely]]
        return withSign(detail::tanhTableChunk(ax));

    // Off-table lanes index the table at 0 (their value is discarded).
    const simd::Chunk tableAx =
        detail::chunkSelect(onTable, ax, simd::chunkBroadcast(0.0));
    const ChunkBits saturated =
        ax >= simd::chunkBroadcast(detail::kTanhSaturate);
    const simd::Chunk e = detail::expNeg2Chunk(ax);
    const simd::Chunk lo = e * (1.0 - 0x1p-47);
    const simd::Chunk hi = e * (1.0 + 0x1p-47);
    const ChunkBits verified =
        ((1.0 - lo) == (1.0 - hi)) & ((1.0 + lo) == (1.0 + hi));
    simd::Chunk p = detail::chunkSelect(
        onTable, detail::tanhTableChunk(tableAx),
        detail::chunkSelect(saturated, simd::chunkBroadcast(1.0),
                            (1.0 - e) / (1.0 + e)));
    p = withSign(p);
    const ChunkBits done = onTable | saturated | verified;
    if (!detail::allLanes(done)) [[unlikely]] {
        for (std::size_t l = 0; l < simd::kChunkLanes; ++l)
            if (!done[l])
                p[l] = fastTanh(x[l]);
    }
    return p;
}

} // namespace acdse
