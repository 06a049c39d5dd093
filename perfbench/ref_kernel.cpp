// The benchmark's host-speed reference: a fixed workload that shares no
// code with the repository, timed between the measured jobs.
//
//     perfbench_ref
//
// Two phases, each on a seeded random graph (out-degree 6, CSR): a few
// repetitions of BFS from a rotating source, inserting every node's
// (id, distance) key into an open-addressing hash table. The small phase
// (2^15 nodes, under 2 MB) stays in the caches; the large one (2^19 nodes,
// about 24 MB) goes out to memory. Prints the seconds spent on the
// repetitions (graph building excluded) and a checksum of the work.
//
// Pointer chasing like the simulator's rounds, so that both slow down
// together when neighbours on a shared host take CPU, cache or memory
// bandwidth. run.py divides its time metrics by this kernel's median time
// in the same run (see README.md, "Reference seconds").

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Seconds spent on `reps` BFS + hash-insert repetitions over a graph of
// 2^log2n nodes; adds the work's checksum to `checksum`.
double phase(unsigned log2n, int reps, std::uint64_t& checksum) {
  const std::uint32_t n = 1u << log2n;
  constexpr std::uint32_t deg = 6;
  constexpr std::uint32_t unseen = ~0u;
  std::uint64_t state = 42 + log2n;
  std::vector<std::uint32_t> offset(n + 1);
  std::vector<std::uint32_t> adj;
  adj.reserve(std::size_t{n} * deg);
  for (std::uint32_t v = 0; v < n; ++v) {
    offset[v] = static_cast<std::uint32_t>(adj.size());
    for (std::uint32_t k = 0; k < deg; ++k)
      adj.push_back(static_cast<std::uint32_t>(splitmix(state) % n));
  }
  offset[n] = static_cast<std::uint32_t>(adj.size());

  std::vector<std::uint32_t> dist(n);
  std::vector<std::uint32_t> queue(n);
  std::vector<std::uint64_t> table(std::size_t{2} * n);
  const std::size_t mask = table.size() - 1;

  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    std::fill(dist.begin(), dist.end(), unseen);
    const auto source = static_cast<std::uint32_t>(r) % n;
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    dist[source] = 0;
    queue[tail++] = source;
    while (head < tail) {
      const std::uint32_t v = queue[head++];
      for (std::uint32_t e = offset[v]; e < offset[v + 1]; ++e) {
        const std::uint32_t w = adj[e];
        if (dist[w] == unseen) {
          dist[w] = dist[v] + 1;
          queue[tail++] = w;
        }
      }
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint64_t key = std::uint64_t{v} * 2654435761u + dist[v] + 1;
      std::size_t i = key & mask;
      while (table[i] != 0 && table[i] != key) i = (i + 1) & mask;
      table[i] = key;
      checksum += i;
    }
    std::fill(table.begin(), table.end(), 0);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  std::uint64_t checksum = 0;
  const double seconds = phase(15, 80, checksum) + phase(19, 2, checksum);
  std::printf("%.9f %llu\n", seconds,
              static_cast<unsigned long long>(checksum));
  return 0;
}
