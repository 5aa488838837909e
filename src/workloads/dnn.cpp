#include "workloads/dnn.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.hpp"

namespace gpm {

DnnApp::DnnApp(const DnnParams &p) : p_(p)
{
    GPM_REQUIRE(p_.minibatch > 0 && p_.minibatch <= p_.train_samples,
                "bad minibatch size");
}

void
DnnApp::init()
{
    Rng rng(p_.seed);
    auto xavier = [&](std::vector<float> &w, std::uint32_t fan_in,
                      std::size_t n) {
        w.resize(n);
        const float scale =
            std::sqrt(2.0f / static_cast<float>(fan_in));
        for (float &v : w) {
            v = (static_cast<float>(rng.uniform()) - 0.5f) * 2.0f *
                scale;
        }
    };
    xavier(w1_, p_.input, std::size_t(p_.hidden) * p_.input);
    b1_.assign(p_.hidden, 0.0f);
    xavier(w2_, p_.hidden, std::size_t(p_.classes) * p_.hidden);
    b2_.assign(p_.classes, 0.0f);

    // Synthetic digits: a Gaussian blob whose center encodes the
    // class, plus deterministic noise — linearly separable enough for
    // the loss to fall, which the tests assert.
    const std::uint32_t side = static_cast<std::uint32_t>(
        std::lround(std::sqrt(static_cast<double>(p_.input))));
    data_.resize(std::size_t(p_.train_samples) * p_.input);
    labels_.resize(p_.train_samples);
    Rng noise(p_.seed ^ 0xdadaull);
    for (std::uint32_t s = 0; s < p_.train_samples; ++s) {
        const std::uint8_t k =
            static_cast<std::uint8_t>(s % p_.classes);
        labels_[s] = k;
        const float cx = 2.0f + (k % 5) * (side - 4.0f) / 4.0f;
        const float cy = 2.0f + (k / 5) * (side - 4.0f) / 1.0f /
                                    ((p_.classes + 4) / 5);
        for (std::uint32_t p = 0; p < p_.input; ++p) {
            const float x = static_cast<float>(p % side);
            const float y = static_cast<float>(p / side);
            const float d2 =
                (x - cx) * (x - cx) + (y - cy) * (y - cy);
            data_[std::size_t(s) * p_.input + p] =
                std::exp(-d2 / 6.0f) +
                0.05f * static_cast<float>(noise.uniform());
        }
    }
    last_loss_ = 0.0;
}

void
DnnApp::forward(const float *x, std::vector<float> &h,
                std::vector<float> &probs) const
{
    h.resize(p_.hidden);
    // kRows hidden rows at a time, so their dependent add chains
    // overlap. Each accumulator still adds in ascending i order, so
    // every h[j] has the bits of a row-at-a-time dot product.
    constexpr std::uint32_t kRows = 8;
    for (std::uint32_t j0 = 0; j0 < p_.hidden; j0 += kRows) {
        const std::uint32_t n = std::min(kRows, p_.hidden - j0);
        float acc[kRows];
        const float *row[kRows];
        for (std::uint32_t r = 0; r < kRows; ++r) {
            // Rows past the end repeat the last one; their sums are
            // discarded.
            const std::uint32_t j = j0 + std::min(r, n - 1);
            acc[r] = b1_[j];
            row[r] = &w1_[std::size_t(j) * p_.input];
        }
        for (std::uint32_t i = 0; i < p_.input; ++i) {
#pragma GCC unroll 8
            for (std::uint32_t r = 0; r < kRows; ++r)
                acc[r] += row[r][i] * x[i];
        }
        for (std::uint32_t r = 0; r < n; ++r)
            h[j0 + r] = acc[r] > 0.0f ? acc[r] : 0.0f;  // ReLU
    }
    probs.assign(p_.classes, 0.0f);
    float maxlogit = -1e30f;
    for (std::uint32_t c = 0; c < p_.classes; ++c) {
        float acc = b2_[c];
        const float *row = &w2_[std::size_t(c) * p_.hidden];
        for (std::uint32_t j = 0; j < p_.hidden; ++j)
            acc += row[j] * h[j];
        probs[c] = acc;
        maxlogit = std::max(maxlogit, acc);
    }
    float denom = 0.0f;
    for (float &v : probs) {
        v = std::exp(v - maxlogit);
        denom += v;
    }
    for (float &v : probs)
        v /= denom;
}

void
DnnApp::computeIteration(Machine &m, std::uint32_t iter)
{
    std::vector<float> h, probs;
    std::vector<float> dh(p_.hidden);
    double loss = 0.0;

    for (std::uint32_t b = 0; b < p_.minibatch; ++b) {
        const std::uint32_t s =
            (iter * p_.minibatch + b) % p_.train_samples;
        const float *x = &data_[std::size_t(s) * p_.input];
        forward(x, h, probs);
        const std::uint8_t label = labels_[s];
        loss -= std::log(std::max(probs[label], 1e-12f));

        // Backward: softmax cross-entropy then ReLU.
        std::fill(dh.begin(), dh.end(), 0.0f);
        for (std::uint32_t c = 0; c < p_.classes; ++c) {
            const float dlogit =
                (probs[c] - (c == label ? 1.0f : 0.0f)) /
                static_cast<float>(p_.minibatch);
            // lr * dlogit * h[j] associates left, so the hoisted
            // step leaves every bit as it was.
            const float step = p_.lr * dlogit;
            float *row = &w2_[std::size_t(c) * p_.hidden];
            for (std::uint32_t j = 0; j < p_.hidden; ++j) {
                dh[j] += dlogit * row[j];
                row[j] -= step * h[j];
            }
            b2_[c] -= step;
        }
        for (std::uint32_t j = 0; j < p_.hidden; ++j) {
            if (h[j] <= 0.0f)
                continue;
            const float step = p_.lr * dh[j];
            float *row = &w1_[std::size_t(j) * p_.input];
            for (std::uint32_t i = 0; i < p_.input; ++i)
                row[i] -= step * x[i];
            b1_[j] -= step;
        }
    }
    last_loss_ = loss / p_.minibatch;

    // Timing: forward + backward is ~6 flops per weight per sample.
    const double weights = static_cast<double>(w1_.size() + w2_.size());
    chargeGpuCompute(m, 6.0 * weights * p_.minibatch,
                     static_cast<std::uint64_t>(weights) * 4 * 3);
}

double
DnnApp::accuracy() const
{
    std::vector<float> h, probs;
    std::uint32_t hits = 0;
    for (std::uint32_t s = 0; s < p_.train_samples; ++s) {
        forward(&data_[std::size_t(s) * p_.input], h, probs);
        const auto best = static_cast<std::uint8_t>(
            std::max_element(probs.begin(), probs.end()) -
            probs.begin());
        hits += best == labels_[s];
    }
    return static_cast<double>(hits) / p_.train_samples;
}

void
DnnApp::registerState(GpmCheckpoint &cp)
{
    cp.registerData(0, w1_.data(), w1_.size() * sizeof(float));
    cp.registerData(0, b1_.data(), b1_.size() * sizeof(float));
    cp.registerData(0, w2_.data(), w2_.size() * sizeof(float));
    cp.registerData(0, b2_.data(), b2_.size() * sizeof(float));
}

std::uint64_t
DnnApp::stateBytes() const
{
    return (std::uint64_t(p_.hidden) * p_.input + p_.hidden +
            std::uint64_t(p_.classes) * p_.hidden + p_.classes) *
           sizeof(float);
}

std::vector<std::uint8_t>
DnnApp::snapshot() const
{
    std::vector<std::uint8_t> out(stateBytes());
    std::uint8_t *dst = out.data();
    for (const std::vector<float> *v : {&w1_, &b1_, &w2_, &b2_}) {
        std::memcpy(dst, v->data(), v->size() * sizeof(float));
        dst += v->size() * sizeof(float);
    }
    return out;
}

} // namespace gpm
