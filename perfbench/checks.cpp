#include "checks.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_set>

namespace perfbench {

using dms::index_t;

namespace {

bool is_edge(const dms::Graph& graph, index_t u, index_t v) {
  if (u < 0 || u >= graph.num_vertices()) return false;
  const auto cols = graph.adjacency().row_cols(u);
  return std::binary_search(cols.begin(), cols.end(), v);
}

/// Every stored entry (i, j) of `layer` maps to a graph edge
/// (row_vertices[i], col_vertices[j]); returns the first offender's text.
std::string first_non_edge(const dms::Graph& graph, const dms::LayerSample& layer) {
  const dms::CsrMatrix& adj = layer.adj;
  if (adj.rows() != static_cast<index_t>(layer.row_vertices.size()) ||
      adj.cols() != static_cast<index_t>(layer.col_vertices.size())) {
    return "adjacency shape does not match its vertex lists";
  }
  for (index_t i = 0; i < adj.rows(); ++i) {
    const index_t u = layer.row_vertices[static_cast<std::size_t>(i)];
    for (const index_t j : adj.row_cols(i)) {
      if (j < 0 || j >= adj.cols()) return "column index out of range";
      const index_t v = layer.col_vertices[static_cast<std::size_t>(j)];
      if (!is_edge(graph, u, v)) {
        return "entry (" + std::to_string(u) + ", " + std::to_string(v) +
               ") is not an edge";
      }
    }
  }
  return {};
}

}  // namespace

void check_sage_samples(const dms::Graph& graph,
                        const std::vector<std::vector<index_t>>& batches,
                        const std::vector<dms::MinibatchSample>& samples,
                        const std::vector<index_t>& fanouts,
                        const std::string& what, Failures* failures) {
  if (samples.size() != batches.size()) {
    failures->push_back(what + ": " + std::to_string(samples.size()) +
                        " samples for " + std::to_string(batches.size()) + " batches");
    return;
  }
  for (std::size_t b = 0; b < samples.size(); ++b) {
    const dms::MinibatchSample& s = samples[b];
    const std::string where = what + " batch " + std::to_string(b);
    if (s.layers.size() != fanouts.size()) {
      failures->push_back(where + ": wrong layer count");
      continue;
    }
    if (s.layers[0].row_vertices != batches[b]) {
      failures->push_back(where + ": first layer's rows are not the batch seeds");
    }
    for (std::size_t l = 0; l < s.layers.size(); ++l) {
      const dms::LayerSample& layer = s.layers[l];
      const std::string at = where + " layer " + std::to_string(l);
      if (const std::string bad = first_non_edge(graph, layer); !bad.empty()) {
        failures->push_back(at + ": " + bad);
        continue;
      }
      for (index_t i = 0; i < layer.adj.rows(); ++i) {
        if (layer.adj.row_nnz(i) > fanouts[l]) {
          failures->push_back(at + ": row " + std::to_string(i) + " exceeds fanout " +
                              std::to_string(fanouts[l]));
          break;
        }
      }
      if (layer.col_vertices.size() < layer.row_vertices.size() ||
          !std::equal(layer.row_vertices.begin(), layer.row_vertices.end(),
                      layer.col_vertices.begin())) {
        failures->push_back(at + ": row vertices do not lead the column frontier");
      }
      if (l + 1 < s.layers.size() &&
          s.layers[l + 1].row_vertices != layer.col_vertices) {
        failures->push_back(at + ": columns are not the next layer's rows");
      }
    }
  }
}

void check_walk_samples(const dms::Graph& graph,
                        const std::vector<std::vector<index_t>>& batches,
                        const std::vector<dms::MinibatchSample>& samples,
                        const std::string& what, Failures* failures) {
  if (samples.size() != batches.size()) {
    failures->push_back(what + ": " + std::to_string(samples.size()) +
                        " samples for " + std::to_string(batches.size()) + " batches");
    return;
  }
  for (std::size_t b = 0; b < samples.size(); ++b) {
    const std::string where = what + " batch " + std::to_string(b);
    for (std::size_t l = 0; l < samples[b].layers.size(); ++l) {
      const dms::LayerSample& layer = samples[b].layers[l];
      if (const std::string bad = first_non_edge(graph, layer); !bad.empty()) {
        failures->push_back(where + " layer " + std::to_string(l) + ": " + bad);
      }
    }
    if (samples[b].layers.empty()) {
      failures->push_back(where + ": no layers");
      continue;
    }
    const std::vector<index_t>& sampled = samples[b].input_vertices();
    const std::unordered_set<index_t> have(sampled.begin(), sampled.end());
    for (const index_t v : batches[b]) {
      if (have.count(v) == 0) {
        failures->push_back(where + ": walk root " + std::to_string(v) +
                            " missing from the sampled vertices");
        break;
      }
    }
  }
}

bool samples_identical(const std::vector<dms::MinibatchSample>& a,
                       const std::vector<dms::MinibatchSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].batch_vertices != b[i].batch_vertices ||
        a[i].layers.size() != b[i].layers.size()) {
      return false;
    }
    for (std::size_t l = 0; l < a[i].layers.size(); ++l) {
      const dms::LayerSample& x = a[i].layers[l];
      const dms::LayerSample& y = b[i].layers[l];
      if (x.row_vertices != y.row_vertices || x.col_vertices != y.col_vertices ||
          x.adj.rows() != y.adj.rows() || x.adj.cols() != y.adj.cols() ||
          x.adj.rowptr() != y.adj.rowptr() || x.adj.colidx() != y.adj.colidx() ||
          x.adj.vals().size() != y.adj.vals().size() ||
          std::memcmp(x.adj.vals().data(), y.adj.vals().data(),
                      x.adj.vals().size() * sizeof(dms::value_t)) != 0) {
        return false;
      }
    }
  }
  return true;
}

bool logits_identical(const dms::DenseF& a, const dms::DenseF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols()) * sizeof(float)) == 0;
}

double sampled_nnz(const std::vector<dms::MinibatchSample>& samples) {
  double n = 0.0;
  for (const dms::MinibatchSample& s : samples) {
    for (const dms::LayerSample& l : s.layers) n += static_cast<double>(l.adj.nnz());
  }
  return n;
}

std::size_t input_rows(const std::vector<dms::MinibatchSample>& samples) {
  std::size_t n = 0;
  for (const dms::MinibatchSample& s : samples) n += s.input_vertices().size();
  return n;
}

}  // namespace perfbench
