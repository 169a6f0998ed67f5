/**
 * @file
 * Shared helpers for the experiment harnesses: plan caching (plans
 * are deterministic, so one build per (model, sparsity, AE) tuple
 * suffices), speedup aggregation, a standard header that records
 * the hardware configuration every experiment ran with, common CLI
 * options (--seed, --json) and machine-readable JSON result rows
 * that downstream tooling can collect into BENCH_*.json
 * trajectories.
 */

#ifndef VITCOD_BENCH_BENCH_UTIL_H
#define VITCOD_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "accel/device.h"
#include "core/pipeline.h"

namespace vitcod::bench {

/** Cache of deterministic model plans keyed by (name, sparsity, ae). */
class PlanCache
{
  public:
    const core::ModelPlan &get(const model::VitModelConfig &m,
                               double sparsity, bool use_ae);

  private:
    std::map<std::string, core::ModelPlan> cache_;
};

/** Latency of one device on one plan, core attention or end-to-end. */
double runSeconds(const accel::Device &dev,
                  const core::ModelPlan &plan, bool end_to_end);

/** Print the standard experiment banner (paper Sec. VI-A config). */
void printHeader(const std::string &experiment,
                 const std::string &paper_reference);

/** Options every bench accepts; unknown argv entries are ignored. */
struct CliOptions
{
    uint64_t seed = 1; //!< --seed N / --seed=N
    bool json = false; //!< --json: machine-readable rows only

    /**
     * --smoke: minimal deterministic run for CI — fewest sweep
     * points / repetitions that still exercise every code path.
     * CMake registers each bench with --smoke under the "bench"
     * CTest label.
     */
    bool smoke = false;

    /** --threads N / --threads=N: worker threads (0 = bench picks). */
    size_t threads = 0;

    /**
     * --trace FILE / --trace=FILE: record an obs::TraceSession span
     * trace of the whole bench run and write Chrome trace_event
     * JSON to FILE at process exit (empty = tracing off).
     */
    std::string traceOut;

    /**
     * --isa NAME / --isa=NAME: restrict kernel benches to one ISA
     * level ("scalar", "avx2", "avx512"; empty = all
     * compiled levels). Validated by the bench that uses it.
     */
    std::string isa;
};

/**
 * Parse --seed / --json / --smoke / --threads / --trace / --isa
 * from argv;
 * fatal() on a malformed value. When --trace is given, the
 * process-wide obs::TraceSession is started immediately and an
 * atexit hook stops it and writes the JSON file, so every bench
 * gets tracing without touching its main().
 */
CliOptions parseCli(int argc, char **argv);

/**
 * One machine-readable result row, printed as a single-line JSON
 * object with insertion-ordered keys:
 *
 *   JsonRow().set("bench", "serving").set("p50_ms", 1.2).print();
 */
class JsonRow
{
  public:
    JsonRow &set(const std::string &key, double v);
    JsonRow &set(const std::string &key, uint64_t v);
    JsonRow &set(const std::string &key, int v);
    JsonRow &set(const std::string &key, const char *v);
    JsonRow &set(const std::string &key, const std::string &v);

    /** Serialize to one line (no trailing newline). */
    std::string str() const;

    /** Print the row plus newline. */
    void print(std::FILE *out = stdout) const;

  private:
    /** key -> pre-serialized JSON value, in insertion order. */
    std::vector<std::pair<std::string, std::string>> fields_;
};

} // namespace vitcod::bench

#endif // VITCOD_BENCH_BENCH_UTIL_H
