// Output checks of the perfbench program. Each check is computed apart from
// the program (from the loaded CSR, or from a second, independently
// configured sampler) or tests a property the method must have; a check
// that does not hold appends a message to `failures`.
#pragma once

#include <string>
#include <vector>

#include "core/sampler.hpp"
#include "graph/graph.hpp"
#include "sparse/dense.hpp"

namespace perfbench {

using Failures = std::vector<std::string>;

/// GraphSAGE samples of `batches` (same order): every adjacency entry is an
/// edge of `graph`, no row holds more entries than its layer's fanout, each
/// layer's rows are the previous layer's columns, row vertices lead the
/// column frontier, and the first layer's rows are the batch seeds.
void check_sage_samples(const dms::Graph& graph,
                        const std::vector<std::vector<dms::index_t>>& batches,
                        const std::vector<dms::MinibatchSample>& samples,
                        const std::vector<dms::index_t>& fanouts,
                        const std::string& what, Failures* failures);

/// Walk-sampler (induced-subgraph) samples: every adjacency entry is an
/// edge of `graph` and every batch seed is among the sampled vertices.
void check_walk_samples(const dms::Graph& graph,
                        const std::vector<std::vector<dms::index_t>>& batches,
                        const std::vector<dms::MinibatchSample>& samples,
                        const std::string& what, Failures* failures);

/// Bitwise equality of two sample lists (vertices, CSR structure, values).
bool samples_identical(const std::vector<dms::MinibatchSample>& a,
                       const std::vector<dms::MinibatchSample>& b);

/// Bitwise equality of two logit matrices.
bool logits_identical(const dms::DenseF& a, const dms::DenseF& b);

/// Total adjacency entries over every layer of every sample.
double sampled_nnz(const std::vector<dms::MinibatchSample>& samples);

/// Σ |input_vertices| — the feature rows a training step requests.
std::size_t input_rows(const std::vector<dms::MinibatchSample>& samples);

}  // namespace perfbench
