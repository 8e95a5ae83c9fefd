#include "ml/mlp.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/binary_io.hh"
#include "base/check.hh"
#include "base/fast_math.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/simd.hh"

namespace acdse
{

namespace
{

using simd::Chunk;
constexpr std::size_t kW = simd::kChunkLanes;

// The one activation function, shared by training, the scalar and the
// batched forward passes so they are bit-identical by construction.
// fastTanh keeps the serving hot path off libm's ~20 ns tanh; its
// ~5e-9 absolute error is far below the network's own fit error, and
// training uses the same activation so the model is consistent with
// its own inference. Note the numerics differ from a pure-libm build
// (error amplified over training epochs); configure with
// -DACDSE_FAST_TANH=OFF (kFastTanh) to stay on std::tanh exactly.
// Every lane of the result is the scalar activation of that lane.
inline Chunk
activation(Chunk x)
{
    if constexpr (kFastTanh)
        return fastTanhChunk(x);
    for (std::size_t l = 0; l < kW; ++l)
        x[l] = std::tanh(x[l]);
    return x;
}

// The training kernels are free functions over __restrict-qualified
// raw pointers, like forwardBlockKernel below. Each chunk op is
// element-wise IEEE arithmetic: every lane is one neuron performing
// the scalar definition's operations, in its order.

/** Pre-activations of @p x into @p acc: bias, then inputs ascending. */
void
preActivations(const double *__restrict w, std::size_t hp, std::size_t d,
               const double *__restrict x, double *__restrict acc)
{
    for (std::size_t c = 0; c < hp; c += kW) {
        Chunk a = simd::chunkLoad(w + c);
        for (std::size_t i = 0; i < d; ++i)
            a += simd::chunkLoad(w + (i + 1) * hp + c) * x[i];
        simd::chunkStore(acc + c, a);
    }
}

/**
 * One SGD step's hidden-layer momentum update, for input row @p x and
 * per-neuron step lr * delta in @p lrd, fused with the next step's
 * pre-activations of @p xn into @p acc. A weight is final as soon as
 * it is updated, so it is read straight back into the next
 * pre-activation, in the scalar order: bias first, then inputs
 * ascending.
 */
void
updateAndPreActivate(double *__restrict w, double *__restrict vel,
                     std::size_t hp, std::size_t d,
                     const double *__restrict lrd, double momentum,
                     const double *__restrict x,
                     const double *__restrict xn, double *__restrict acc)
{
    const Chunk m = simd::chunkBroadcast(momentum);
    for (std::size_t c = 0; c < hp; c += kW) {
        const Chunk g = simd::chunkLoad(lrd + c);
        Chunk v = m * simd::chunkLoad(vel + c) - g;
        Chunk wt = simd::chunkLoad(w + c) + v;
        simd::chunkStore(vel + c, v);
        simd::chunkStore(w + c, wt);
        Chunk a = wt;
        for (std::size_t i = 0; i < d; ++i) {
            const std::size_t at = (i + 1) * hp + c;
            v = m * simd::chunkLoad(vel + at) - g * x[i];
            wt = simd::chunkLoad(w + at) + v;
            simd::chunkStore(vel + at, v);
            simd::chunkStore(w + at, wt);
            a += wt * xn[i];
        }
        simd::chunkStore(acc + c, a);
    }
}

} // namespace

Mlp::Mlp(MlpOptions options) : options_(options)
{
    ACDSE_CHECK(options_.hiddenNeurons > 0, "need at least one neuron");
    ACDSE_CHECK(options_.epochs > 0, "need at least one epoch");
}

void
Mlp::train(const std::vector<std::vector<double>> &xs,
           const std::vector<double> &ys)
{
    ACDSE_CHECK(!xs.empty(), "cannot train on no samples");
    ACDSE_CHECK(xs.size() == ys.size(), "xs/ys size mismatch");
    inputDim_ = xs.front().size();

    inputScaler_.fit(xs);
    targetScaler_.fit(ys);
    std::vector<std::vector<double>> xz(xs.size());
    std::vector<double> yz(ys.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        xz[i] = inputScaler_.transform(xs[i]);
        yz[i] = targetScaler_.scale(ys[i]);
    }

    // SGD with momentum can diverge for unlucky (topology, seed, rate)
    // combinations; detect non-finite weights afterwards and retrain
    // at a reduced rate.
    double rate = options_.learningRate;
    for (int attempt = 0; attempt < 4; ++attempt, rate *= 0.25) {
        trainScaled(xz, yz, rate);
        bool finite = true;
        for (double w : hiddenWeights_)
            finite &= std::isfinite(w);
        for (double w : outputWeights_)
            finite &= std::isfinite(w);
        if (finite) {
            trained_ = true;
            return;
        }
    }
    panic("MLP training diverged even at a tiny learning rate");
}

void
Mlp::trainScaled(const std::vector<std::vector<double>> &xz,
                 const std::vector<double> &yz, double rate)
{
    // Stochastic back-propagation with momentum. Per sample, in the
    // scalar definition's order: forward pass, clipped error, output
    // velocities, hidden deltas (from the pre-update output weights)
    // and hidden updates, then the output weights. The hidden layer
    // runs one neuron per lane; the output sum stays a scalar loop in
    // neuron order.
    //
    // The hidden layer is held input-major: row 0 holds the neuron
    // biases, row 1 + i the weights of input i, each row hp values
    // wide (the neuron count rounded up to whole chunks). Padding
    // lanes start at zero and stay exactly zero: their output weight
    // is zero, so their delta, velocity and pre-activation are too.
    const std::size_t h = static_cast<std::size_t>(options_.hiddenNeurons);
    const std::size_t d = inputDim_;
    const std::size_t n = yz.size();
    Rng rng(options_.seed);
    const double init = 1.0 / std::sqrt(static_cast<double>(d + 1));
    hiddenWeights_.assign(h * (d + 1), 0.0);
    for (auto &w : hiddenWeights_)
        w = rng.nextDouble(-init, init);
    outputWeights_.assign(h + 1, 0.0);
    const double out_init = 1.0 / std::sqrt(static_cast<double>(h + 1));
    for (auto &w : outputWeights_)
        w = rng.nextDouble(-out_init, out_init);

    const std::size_t hp = (h + kW - 1) / kW * kW;
    std::vector<double> hw((d + 1) * hp, 0.0);
    std::vector<double> hv((d + 1) * hp, 0.0);
    for (std::size_t j = 0; j < h; ++j) {
        hw[j] = hiddenWeights_[j * (d + 1) + d];
        for (std::size_t i = 0; i < d; ++i)
            hw[(i + 1) * hp + j] = hiddenWeights_[j * (d + 1) + i];
    }
    // Output weights and velocities padded like a hidden-layer row,
    // with the output bias kept apart.
    std::vector<double> wo(hp, 0.0);
    std::vector<double> vo(hp, 0.0);
    std::copy(outputWeights_.begin(), outputWeights_.begin() + h,
              wo.begin());
    double wob = outputWeights_[h];
    double vob = 0.0;
    std::vector<double> acc(hp);
    std::vector<double> act(hp);
    std::vector<double> lrd(hp);

    // The epoch order is drawn one epoch ahead so the last step of an
    // epoch can fuse with the first of the next; the RNG draws only
    // for shuffles here, so the draws are the same.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    std::vector<std::size_t> next;
    preActivations(hw.data(), hp, d, xz[order[0]].data(), acc.data());

    const double momentum = options_.momentum;
    const Chunk m = simd::chunkBroadcast(momentum);
    double lr = rate;
    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
        const bool last_epoch = epoch + 1 == options_.epochs;
        if (!last_epoch) {
            next = order;
            rng.shuffle(next);
        }
        const Chunk lrc = simd::chunkBroadcast(lr);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t s = order[k];
            const std::size_t sn = k + 1 < n       ? order[k + 1]
                                   : !last_epoch ? next[0]
                                                 : s;
            double pred = wob;
            for (std::size_t c = 0; c < hp; c += kW)
                simd::chunkStore(&act[c],
                                 activation(simd::chunkLoad(&acc[c])));
            for (std::size_t j = 0; j < h; ++j)
                pred += wo[j] * act[j];
            // Clip the error signal: targets are z-scored, so anything
            // beyond a few sigma indicates a transient blow-up that
            // must not be amplified through the momentum terms.
            const double err = std::clamp(pred - yz[s], -5.0, 5.0);

            // Output velocity: dE/dw_o = err * [hidden; 1]. Hidden
            // delta through tanh': err * w_oj * (1 - hidden_j^2).
            for (std::size_t c = 0; c < hp; c += kW) {
                const Chunk a = simd::chunkLoad(&act[c]);
                simd::chunkStore(&vo[c], m * simd::chunkLoad(&vo[c]) -
                                             lrc * (err * a));
                const Chunk delta =
                    err * simd::chunkLoad(&wo[c]) * (1.0 - a * a);
                simd::chunkStore(&lrd[c], lrc * delta);
            }
            vob = momentum * vob - lr * err;
            updateAndPreActivate(hw.data(), hv.data(), hp, d,
                                 lrd.data(), momentum, xz[s].data(),
                                 xz[sn].data(), acc.data());
            for (std::size_t c = 0; c < hp; c += kW)
                simd::chunkStore(&wo[c], simd::chunkLoad(&wo[c]) +
                                             simd::chunkLoad(&vo[c]));
            wob += vob;
        }
        lr *= options_.lrDecay;
        order.swap(next);
    }

    for (std::size_t j = 0; j < h; ++j) {
        hiddenWeights_[j * (d + 1) + d] = hw[j];
        for (std::size_t i = 0; i < d; ++i)
            hiddenWeights_[j * (d + 1) + i] = hw[(i + 1) * hp + j];
        outputWeights_[j] = wo[j];
    }
    outputWeights_[h] = wob;
}

double
Mlp::forwardScaled(const double *xz) const
{
    // Neurons in groups of one chunk: each lane's pre-activation is
    // the scalar dot product (bias, then inputs ascending), the group
    // shares one batched activation, and the output sum stays in
    // neuron order.
    const std::size_t h = static_cast<std::size_t>(options_.hiddenNeurons);
    double out = outputWeights_[h]; // output bias
    for (std::size_t j0 = 0; j0 < h; j0 += kW) {
        const std::size_t lanes = std::min(kW, h - j0);
        Chunk pre = simd::chunkBroadcast(0.0);
        for (std::size_t l = 0; l < lanes; ++l) {
            const double *row = &hiddenWeights_[(j0 + l) * (inputDim_ + 1)];
            double a = row[inputDim_]; // hidden bias
            for (std::size_t i = 0; i < inputDim_; ++i)
                a += row[i] * xz[i];
            pre[l] = a;
        }
        const Chunk act = activation(pre);
        for (std::size_t l = 0; l < lanes; ++l)
            out += outputWeights_[j0 + l] * act[l];
    }
    return out;
}

namespace
{

// The block kernel is a free function over __restrict-qualified raw
// pointers (accessed through `this`, the weight vectors defeat alias
// analysis), accumulating in local chunk variables so the accumulators
// live in registers across the whole dot product. Each chunk op is
// element-wise IEEE arithmetic -- the same operations, in the same
// order, as forwardScaled performs per point.
void
forwardBlockKernel(const double *__restrict hidden_weights,
                   const double *__restrict output_weights,
                   std::size_t h, std::size_t d,
                   const double *__restrict block, double *__restrict out)
{
    constexpr std::size_t kC = simd::kChunks;
    Chunk o[kC];
    const Chunk ob = simd::chunkBroadcast(output_weights[h]);
    for (std::size_t c = 0; c < kC; ++c)
        o[c] = ob; // output bias
    for (std::size_t j = 0; j < h; ++j) {
        const double *__restrict row = hidden_weights + j * (d + 1);
        Chunk a[kC];
        const Chunk hb = simd::chunkBroadcast(row[d]);
        for (std::size_t c = 0; c < kC; ++c)
            a[c] = hb; // hidden bias
        for (std::size_t i = 0; i < d; ++i) {
            const Chunk w = simd::chunkBroadcast(row[i]);
            const double *x = block + i * simd::kLanes;
            for (std::size_t c = 0; c < kC; ++c)
                a[c] += simd::chunkLoad(x + c * kW) * w;
        }
        for (std::size_t c = 0; c < kC; ++c)
            a[c] = activation(a[c]);
        const Chunk wo = simd::chunkBroadcast(output_weights[j]);
        for (std::size_t c = 0; c < kC; ++c)
            o[c] += a[c] * wo;
    }
    for (std::size_t c = 0; c < kC; ++c)
        simd::chunkStore(out + c * kW, o[c]);
}

} // namespace

void
Mlp::forwardBlock(const double *__restrict block,
                  double *__restrict out) const
{
    // One point per lane: lane l's operation sequence is exactly
    // forwardScaled on point l -- bias, then features in ascending
    // order, activation, then output terms in ascending neuron order
    // -- so each lane reproduces the scalar result bit for bit.
    forwardBlockKernel(hiddenWeights_.data(), outputWeights_.data(),
                       static_cast<std::size_t>(options_.hiddenNeurons),
                       inputDim_, block, out);
}

void
Mlp::predictBlockSoa(const double *soa, double *out,
                     MlpBatchScratch &scratch) const
{
    ACDSE_DCHECK(trained_, "predict before train");
    scratch.block.resize(inputDim_ * simd::kLanes);
    inputScaler_.transformBlock(soa, scratch.block.data());
    forwardBlock(scratch.block.data(), out);
    targetScaler_.unscaleBatch(out, simd::kLanes);
}

void
Mlp::predictBatch(const double *xs, std::size_t count, double *out,
                  MlpBatchScratch &scratch) const
{
    ACDSE_CHECK(trained_, "predict before train");
    constexpr std::size_t lanes = simd::kLanes;
    const std::size_t d = inputDim_;
    const std::size_t full = count - count % lanes;

    scratch.soa.resize(d * lanes);
    for (std::size_t base = 0; base < full; base += lanes) {
        simd::transposeBlock(xs + base * d, d, scratch.soa.data());
        predictBlockSoa(scratch.soa.data(), out + base, scratch);
    }
    // Remainder lanes take the scalar path -- the same arithmetic, so
    // the batch is uniform regardless of where the block edge falls.
    for (std::size_t c = full; c < count; ++c) {
        scratch.point.assign(xs + c * d, xs + (c + 1) * d);
        out[c] = predict(scratch.point, scratch.scaled);
    }
}

void
Mlp::save(BinaryWriter &w) const
{
    ACDSE_CHECK(trained_, "cannot save an untrained MLP");
    w.u32(static_cast<std::uint32_t>(options_.hiddenNeurons));
    w.u32(static_cast<std::uint32_t>(options_.epochs));
    w.f64(options_.learningRate);
    w.f64(options_.momentum);
    w.f64(options_.lrDecay);
    w.u64(options_.seed);
    w.u64(inputDim_);
    inputScaler_.save(w);
    targetScaler_.save(w);
    w.f64vec(hiddenWeights_);
    w.f64vec(outputWeights_);
}

void
Mlp::load(BinaryReader &r)
{
    options_.hiddenNeurons = static_cast<int>(r.u32());
    options_.epochs = static_cast<int>(r.u32());
    options_.learningRate = r.f64();
    options_.momentum = r.f64();
    options_.lrDecay = r.f64();
    options_.seed = r.u64();
    inputDim_ = static_cast<std::size_t>(r.u64());
    inputScaler_.load(r);
    targetScaler_.load(r);
    hiddenWeights_ = r.f64vec();
    outputWeights_ = r.f64vec();

    if (options_.hiddenNeurons <= 0)
        throw SerializationError("MLP with no hidden neurons");
    const std::size_t h =
        static_cast<std::size_t>(options_.hiddenNeurons);
    if (hiddenWeights_.size() != h * (inputDim_ + 1) ||
        outputWeights_.size() != h + 1 ||
        inputScaler_.dims() != inputDim_) {
        throw SerializationError("MLP weight shapes are inconsistent");
    }
    trained_ = true;
}

double
Mlp::predict(const std::vector<double> &x) const
{
    std::vector<double> scratch;
    return predict(x, scratch);
}

double
Mlp::predict(const std::vector<double> &x,
             std::vector<double> &scratch) const
{
    ACDSE_CHECK(trained_, "predict before train");
    // Width is DCHECK-only: this is the serving hot path (called per
    // point, per metric, per ensemble member) and the artifact
    // boundary in PredictionService validates width once per batch.
    ACDSE_DCHECK(x.size() == inputDim_, "input has ", x.size(),
                 " features, network expects ", inputDim_);
    inputScaler_.transformInto(x, scratch);
    return targetScaler_.unscale(forwardScaled(scratch.data()));
}

} // namespace acdse
