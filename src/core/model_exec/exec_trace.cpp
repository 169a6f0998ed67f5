#include "core/model_exec/exec_trace.h"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace vitcod::core::model_exec {

namespace {

constexpr const char *kMagic = "vitcod-exec-trace";
constexpr const char *kVersion = "v3";

} // namespace

double
LayerTrace::seconds() const
{
    return qkvSeconds + attnSeconds + projSeconds + mlpSeconds;
}

void
ExecTrace::write(std::ostream &os) const
{
    // Doubles round-trip exactly at 17 significant digits;
    // restored on return (ostream precision is sticky).
    const auto old_precision = os.precision(17);
    os << kMagic << ' ' << kVersion << '\n';
    os << "model " << model << '\n';
    os << "batch " << batch << '\n';
    os << "total_macs " << totalMacs << '\n';
    os << "patch_embed_seconds " << patchEmbedSeconds << '\n';
    os << "classifier_seconds " << classifierSeconds << '\n';
    os << "total_seconds " << totalSeconds << '\n';
    for (const auto &[name, member] : linalg::engine::dispatchStatsFields())
        os << "dispatch " << name << ' ' << dispatch.*member << '\n';
    os << "layers " << layers.size() << '\n';
    for (const LayerTrace &l : layers) {
        os << "layer " << l.layer << " tokens " << l.tokens
           << " heads " << l.heads << " head_dim " << l.headDim
           << " embed_dim " << l.embedDim << " macs " << l.macs
           << " qkv_s " << l.qkvSeconds << " attn_s " << l.attnSeconds
           << " proj_s " << l.projSeconds << " mlp_s " << l.mlpSeconds
           << '\n';
        // Explicit count: heads above is the layer shape, while the
        // records below may be absent (collectHeadTraces = false).
        os << "head_traces " << l.headTraces.size() << '\n';
        for (const HeadTrace &h : l.headTraces)
            os << "head " << h.head << " nnz " << h.maskNnz
               << " global " << h.numGlobalTokens << " seconds "
               << h.seconds << '\n';
    }
    os.precision(old_precision);
}

void
ExecTrace::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    write(os);
    if (!os)
        fatal("write to '", path, "' failed");
}

namespace {

/** Read one token and panic if it is not @p expected. */
void
expectWord(std::istream &is, const char *expected)
{
    std::string word;
    if (!(is >> word) || word != expected)
        fatal("exec trace parse error: expected '", expected,
              "', got '", word, "'");
}

template <typename T>
T
readValue(std::istream &is, const char *label)
{
    expectWord(is, label);
    T v{};
    if (!(is >> v))
        fatal("exec trace parse error: bad value for '", label, "'");
    return v;
}

} // namespace

ExecTrace
ExecTrace::read(std::istream &is)
{
    expectWord(is, kMagic);
    expectWord(is, kVersion);

    ExecTrace t;
    t.model = readValue<std::string>(is, "model");
    t.batch = readValue<size_t>(is, "batch");
    t.totalMacs = readValue<MacOps>(is, "total_macs");
    t.patchEmbedSeconds =
        readValue<double>(is, "patch_embed_seconds");
    t.classifierSeconds =
        readValue<double>(is, "classifier_seconds");
    t.totalSeconds = readValue<double>(is, "total_seconds");
    for (const auto &[name, member] : linalg::engine::dispatchStatsFields()) {
        expectWord(is, "dispatch");
        t.dispatch.*member = readValue<uint64_t>(is, name);
    }
    const auto n_layers = readValue<size_t>(is, "layers");
    t.layers.reserve(n_layers);
    for (size_t i = 0; i < n_layers; ++i) {
        LayerTrace l;
        l.layer = readValue<size_t>(is, "layer");
        l.tokens = readValue<size_t>(is, "tokens");
        l.heads = readValue<size_t>(is, "heads");
        l.headDim = readValue<size_t>(is, "head_dim");
        l.embedDim = readValue<size_t>(is, "embed_dim");
        l.macs = readValue<MacOps>(is, "macs");
        l.qkvSeconds = readValue<double>(is, "qkv_s");
        l.attnSeconds = readValue<double>(is, "attn_s");
        l.projSeconds = readValue<double>(is, "proj_s");
        l.mlpSeconds = readValue<double>(is, "mlp_s");
        const auto n_heads = readValue<size_t>(is, "head_traces");
        l.headTraces.reserve(n_heads);
        for (size_t h = 0; h < n_heads; ++h) {
            HeadTrace ht;
            ht.head = readValue<size_t>(is, "head");
            ht.maskNnz = readValue<size_t>(is, "nnz");
            ht.numGlobalTokens = readValue<size_t>(is, "global");
            ht.seconds = readValue<double>(is, "seconds");
            l.headTraces.push_back(ht);
        }
        t.layers.push_back(std::move(l));
    }
    return t;
}

ExecTrace
ExecTrace::readFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '", path, "' for reading");
    return read(is);
}

namespace {

bool
fail(std::string *why, const std::string &msg)
{
    if (why)
        *why = msg;
    return false;
}

template <typename T>
bool
check(std::string *why, const std::string &what, const T &a,
      const T &b)
{
    if (a == b)
        return true;
    std::ostringstream os;
    os << what << ": " << a << " vs " << b;
    return fail(why, os.str());
}

} // namespace

bool
structurallyEqual(const ExecTrace &a, const ExecTrace &b,
                  std::string *why)
{
    if (!check(why, "model", a.model, b.model) ||
        !check(why, "batch", a.batch, b.batch) ||
        !check(why, "total_macs", a.totalMacs, b.totalMacs) ||
        !check(why, "layer count", a.layers.size(), b.layers.size()))
        return false;
    for (const auto &[name, member] : linalg::engine::dispatchStatsFields())
        if (!check(why, std::string("dispatch ") + name,
                   a.dispatch.*member, b.dispatch.*member))
            return false;
    for (size_t i = 0; i < a.layers.size(); ++i) {
        const LayerTrace &la = a.layers[i];
        const LayerTrace &lb = b.layers[i];
        const std::string tag = "layer " + std::to_string(i) + " ";
        if (!check(why, tag + "index", la.layer, lb.layer) ||
            !check(why, tag + "tokens", la.tokens, lb.tokens) ||
            !check(why, tag + "heads", la.heads, lb.heads) ||
            !check(why, tag + "head_dim", la.headDim, lb.headDim) ||
            !check(why, tag + "embed_dim", la.embedDim,
                   lb.embedDim) ||
            !check(why, tag + "macs", la.macs, lb.macs) ||
            !check(why, tag + "head count", la.headTraces.size(),
                   lb.headTraces.size()))
            return false;
        for (size_t h = 0; h < la.headTraces.size(); ++h) {
            const HeadTrace &ha = la.headTraces[h];
            const HeadTrace &hb = lb.headTraces[h];
            const std::string htag =
                tag + "head " + std::to_string(h) + " ";
            if (!check(why, htag + "index", ha.head, hb.head) ||
                !check(why, htag + "nnz", ha.maskNnz, hb.maskNnz) ||
                !check(why, htag + "global", ha.numGlobalTokens,
                       hb.numGlobalTokens))
                return false;
        }
    }
    return true;
}

} // namespace vitcod::core::model_exec
