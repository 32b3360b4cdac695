#ifndef ADAMINE_NN_INIT_H_
#define ADAMINE_NN_INIT_H_

#include "tensor/tensor.h"
#include "util/rng.h"

namespace adamine::nn {

/// Glorot/Xavier uniform initialisation for a [fan_in, fan_out] weight
/// matrix: U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))).
Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng& rng);

/// LSTM gate weight init: Xavier for the [input+hidden, 4*hidden] matrix.
Tensor LstmWeight(int64_t input_dim, int64_t hidden_dim, Rng& rng);

/// LSTM bias init: zeros except the forget-gate block set to 1 (the usual
/// trick to keep memory open early in training). Gate layout is [i, f, g, o].
Tensor LstmBias(int64_t hidden_dim);

}  // namespace adamine::nn

#endif  // ADAMINE_NN_INIT_H_
