#include "nn/init.h"

#include <cmath>

namespace adamine::nn {

Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng& rng) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::RandUniform({fan_in, fan_out}, rng, -bound, bound);
}

Tensor LstmWeight(int64_t input_dim, int64_t hidden_dim, Rng& rng) {
  return XavierUniform(input_dim + hidden_dim, 4 * hidden_dim, rng);
}

Tensor LstmBias(int64_t hidden_dim) {
  Tensor b({4 * hidden_dim});
  for (int64_t i = hidden_dim; i < 2 * hidden_dim; ++i) b[i] = 1.0f;
  return b;
}

}  // namespace adamine::nn
