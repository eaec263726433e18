#ifndef TMAN_INDEX_SHAPE_ENCODING_H_
#define TMAN_INDEX_SHAPE_ENCODING_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tman::index {

// Shape-code optimisation (paper §IV-A2(3)): renumber the shapes actually
// used inside an enlarged element so that spatially similar shapes receive
// adjacent final codes, which clusters similar trajectories in the rowkey
// space. Maximising the cumulative Jaccard similarity of adjacent codes is
// a longest-Hamiltonian-path variant of the TSP; the paper solves it with
// a greedy heuristic and a genetic algorithm.

// The shapes used in one enlarged element, as (raw bitmap, final code)
// pairs.
using ShapeList = std::vector<std::pair<uint32_t, uint32_t>>;

// Jaccard similarity of two cell bitsets: |a&b| / |a|b|. Two empty shapes
// are defined as identical (similarity 1).
double JaccardSimilarity(uint32_t a, uint32_t b);

// Sum of similarities along a visiting order (Eq. 5's objective).
double CumulativeSimilarity(const std::vector<uint32_t>& shapes,
                            const std::vector<uint32_t>& order);

enum class ShapeOrderMethod {
  kBitmap,  // identity order (raw codes, no optimisation)
  kGreedy,  // nearest-neighbour on similarity
  kGenetic, // genetic algorithm with order crossover
};

struct GeneticParams {
  int population = 24;
  int generations = 60;
  double mutation_rate = 0.2;
  uint64_t seed = 1;
};

// Returns a permutation `order` of [0, shapes.size()): the shape at
// order[p] receives final code p.
std::vector<uint32_t> OptimizeShapeOrder(const std::vector<uint32_t>& shapes,
                                         ShapeOrderMethod method,
                                         const GeneticParams& params = {});

// Gapped final codes. Codes are never renumbered once rows carry them, so
// an element's shapes are not packed into 0..n-1: the n shapes of an
// element that starts empty, in optimized order, get codes spread evenly
// over its `code_space` codes, the shape at position p in the middle of
// the p-th of n equal slots, floor((p + 1/2) * code_space / n - 1/2).
// Codes are strictly increasing; the last is code_space - 1 only when
// n == code_space, which gives the dense codes 0..n-1.
std::vector<uint32_t> SpreadCodes(size_t n, uint64_t code_space);

// The code for a shape `bits` new to an element holding `shapes` (sorted
// by code; fewer than `code_space` of them): cheapest insertion into the
// element's code order under the objective OptimizeShapeOrder maximises,
// i.e. the position whose neighbours gain the most Jaccard similarity,
// then the middle free code between those neighbours, or the free code
// nearest to them if no code lies between.
uint32_t PlaceShape(const ShapeList& shapes, uint32_t bits,
                    uint64_t code_space);

}  // namespace tman::index

#endif  // TMAN_INDEX_SHAPE_ENCODING_H_
