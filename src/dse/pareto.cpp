#include "dse/pareto.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace vitcod::dse {

std::string
WorkloadSpec::str() const
{
    std::ostringstream oss;
    oss << model << '/' << sparsity << '/' << (useAe ? "ae" : "noae")
        << '/' << (endToEnd ? "e2e" : "attn") << '*' << weight;
    return oss.str();
}

bool
dominates(const Objectives &a, const Objectives &b)
{
    const bool no_worse = a.latencySeconds <= b.latencySeconds &&
                          a.energyJoules <= b.energyJoules &&
                          a.areaMm2 <= b.areaMm2;
    const bool better = a.latencySeconds < b.latencySeconds ||
                        a.energyJoules < b.energyJoules ||
                        a.areaMm2 < b.areaMm2;
    return no_worse && better;
}

HwPoint
HwPoint::of(const accel::ViTCoDConfig &cfg)
{
    HwPoint p;
    p.macLines = cfg.macArray.macLines;
    p.macsPerLine = cfg.macArray.macsPerLine;
    p.aeLines = cfg.aeLines;
    p.sparserLineFrac = cfg.sparserLineFrac;
    p.qkvBufBytes = cfg.qkvBufBytes;
    p.sBufferBytes = cfg.sBufferBytes;
    p.bandwidthGBps = cfg.dram.bandwidthGBps;
    p.pipeFifoDepth = cfg.pipeline.fetchFifoDepth;
    p.pipeStageLatency = cfg.pipeline.fetchLatency;
    return p;
}

accel::ViTCoDConfig
HwPoint::apply(accel::ViTCoDConfig base) const
{
    base.macArray.macLines = macLines;
    base.macArray.macsPerLine = macsPerLine;
    base.aeLines = aeLines;
    base.sparserLineFrac = sparserLineFrac;
    base.qkvBufBytes = qkvBufBytes;
    base.sBufferBytes = sBufferBytes;
    base.dram.bandwidthGBps = bandwidthGBps;
    base.pipeline.fetchFifoDepth = pipeFifoDepth;
    base.pipeline.writebackFifoDepth = pipeFifoDepth;
    base.pipeline.fetchLatency = pipeStageLatency;
    base.pipeline.denserLatency = pipeStageLatency;
    base.pipeline.sparserLatency = pipeStageLatency;
    base.pipeline.writebackLatency = pipeStageLatency;
    return base;
}

namespace {

/** Deterministic total order: latency, then area, energy, index. */
bool
pointLess(const DsePoint &a, const DsePoint &b)
{
    if (a.obj.latencySeconds != b.obj.latencySeconds)
        return a.obj.latencySeconds < b.obj.latencySeconds;
    if (a.obj.areaMm2 != b.obj.areaMm2)
        return a.obj.areaMm2 < b.obj.areaMm2;
    if (a.obj.energyJoules != b.obj.energyJoules)
        return a.obj.energyJoules < b.obj.energyJoules;
    return a.index < b.index;
}

} // namespace

bool
ParetoFrontier::insert(const DsePoint &p)
{
    for (const DsePoint &q : points_) {
        if (dominates(q.obj, p.obj) || q == p)
            return false;
    }
    points_.erase(std::remove_if(points_.begin(), points_.end(),
                                 [&](const DsePoint &q) {
                                     return dominates(p.obj, q.obj);
                                 }),
                  points_.end());
    points_.insert(std::upper_bound(points_.begin(), points_.end(), p,
                                    pointLess),
                   p);
    return true;
}

const DsePoint &
ParetoFrontier::bestLatency() const
{
    VITCOD_ASSERT(!points_.empty(), "empty frontier");
    return points_.front();
}

bool
ParetoFrontier::nonDominated(const Objectives &obj) const
{
    for (const DsePoint &q : points_)
        if (dominates(q.obj, obj))
            return false;
    return true;
}

// --------------------------------------------------------- JSON I/O

namespace {

constexpr const char *kFormat = "vitcod-dse-frontier";
constexpr uint64_t kVersion = 1;

/** Deepest array/object nesting the reader accepts (the format
 *  itself nests three levels). */
constexpr size_t kMaxDepth = 8;

/** Shortest-exact double form (17 significant digits round-trip). */
std::string
numStr(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
               << "0123456789abcdef"[c & 0xf];
        else
            os << c;
    }
    os << '"';
}

/**
 * Minimal JSON document model for reading frontier files back —
 * objects, arrays, strings, numbers and booleans; numbers keep
 * their source token so integers up to 64 bits parse exactly, and
 * a token parses only if it is one number from end to end.
 */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; //!< string value or raw number token
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    const JsonValue &
    at(const std::string &key) const
    {
        for (const auto &[k, v] : fields)
            if (k == key)
                return v;
        fatal("dse frontier parse error: missing key '", key, "'");
    }

    double
    asDouble() const
    {
        return parsed<double>();
    }

    /** Rejects a sign, overflow and anything but decimal digits. */
    uint64_t
    asU64() const
    {
        return parsed<uint64_t>();
    }

    bool
    asBool() const
    {
        VITCOD_ASSERT(kind == Kind::Bool,
                      "dse frontier parse error: expected bool");
        return boolean;
    }

    const std::string &
    asString() const
    {
        VITCOD_ASSERT(kind == Kind::String,
                      "dse frontier parse error: expected string");
        return text;
    }

  private:
    template <typename T>
    T
    parsed() const
    {
        VITCOD_ASSERT(kind == Kind::Number,
                      "dse frontier parse error: expected number");
        T out{};
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, out);
        VITCOD_ASSERT(ec == std::errc() && ptr == end,
                      "dse frontier parse error: bad number '", text,
                      "'");
        return out;
    }
};

/** Recursive-descent parser over the JSON subset we emit. */
class JsonParser
{
  public:
    explicit JsonParser(std::istream &is)
    {
        std::ostringstream oss;
        oss << is.rdbuf();
        src_ = oss.str();
    }

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        VITCOD_ASSERT(pos_ == src_.size(),
                      "dse frontier parse error: trailing content");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < src_.size() &&
               std::isspace(static_cast<unsigned char>(src_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        VITCOD_ASSERT(pos_ < src_.size(),
                      "dse frontier parse error: unexpected end");
        return src_[pos_];
    }

    void
    expect(char c)
    {
        VITCOD_ASSERT(peek() == c, "dse frontier parse error: expected '",
                      std::string(1, c), "'");
        ++pos_;
    }

    JsonValue
    value()
    {
        const char c = peek();
        if (c == '{' || c == '[') {
            VITCOD_ASSERT(depth_ < kMaxDepth,
                          "dse frontier parse error: nesting too deep");
            ++depth_;
            JsonValue v = c == '{' ? object() : array();
            --depth_;
            return v;
        }
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.text = string();
            return v;
        }
        if (c == 't' || c == 'f') {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = (c == 't');
            literal(c == 't' ? "true" : "false");
            return v;
        }
        if (c == 'n') {
            literal("null");
            return {};
        }
        return number();
    }

    void
    literal(const std::string &word)
    {
        VITCOD_ASSERT(src_.compare(pos_, word.size(), word) == 0,
                      "dse frontier parse error: bad literal");
        pos_ += word.size();
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            VITCOD_ASSERT(pos_ < src_.size(),
                          "dse frontier parse error: unterminated string");
            const char c = src_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                VITCOD_ASSERT(pos_ < src_.size(),
                              "dse frontier parse error: bad escape");
                const char e = src_[pos_++];
                if (e == 'u') {
                    unsigned code = 0;
                    const char *hex = src_.data() + pos_;
                    const char *end =
                        hex + std::min<size_t>(4, src_.size() - pos_);
                    const auto [ptr, ec] =
                        std::from_chars(hex, end, code, 16);
                    VITCOD_ASSERT(ec == std::errc() && ptr == hex + 4,
                                  "dse frontier parse error: bad \\u");
                    out.push_back(static_cast<char>(code));
                    pos_ += 4;
                } else {
                    out.push_back(e);
                }
            } else {
                out.push_back(c);
            }
        }
    }

    JsonValue
    number()
    {
        skipWs();
        const size_t start = pos_;
        while (pos_ < src_.size() &&
               (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
                src_[pos_] == '-' || src_[pos_] == '+' ||
                src_[pos_] == '.' || src_[pos_] == 'e' ||
                src_[pos_] == 'E'))
            ++pos_;
        VITCOD_ASSERT(pos_ > start,
                      "dse frontier parse error: expected value");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.text = src_.substr(start, pos_ - start);
        return v;
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = string();
            expect(':');
            v.fields.emplace_back(std::move(key), value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    std::string src_;
    size_t pos_ = 0;
    size_t depth_ = 0; //!< open arrays/objects around pos_
};

} // namespace

void
ParetoFrontier::writeJson(std::ostream &os) const
{
    os << "{\n";
    os << "  \"format\": \"" << kFormat << "\",\n";
    os << "  \"version\": " << kVersion << ",\n";
    // Format v1 provenance keys: the explorer's one search is
    // exhaustive and unseeded.
    os << "  \"algorithm\": \"exhaustive\",\n";
    os << "  \"seed\": 0,\n";
    os << "  \"evaluated\": " << evaluated << ",\n";
    os << "  \"workloads\": [";
    for (size_t i = 0; i < workloads.size(); ++i) {
        const WorkloadSpec &w = workloads[i];
        os << (i ? ",\n    " : "\n    ") << "{\"model\": ";
        writeEscaped(os, w.model);
        os << ", \"sparsity\": " << numStr(w.sparsity)
           << ", \"use_ae\": " << (w.useAe ? "true" : "false")
           << ", \"end_to_end\": " << (w.endToEnd ? "true" : "false")
           << ", \"weight\": " << numStr(w.weight) << '}';
    }
    os << (workloads.empty() ? "]" : "\n  ]") << ",\n";
    os << "  \"points\": [";
    for (size_t i = 0; i < points_.size(); ++i) {
        const DsePoint &p = points_[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"index\": " << p.index << ", \"mac_lines\": "
           << p.hw.macLines << ", \"macs_per_line\": "
           << p.hw.macsPerLine << ", \"ae_lines\": " << p.hw.aeLines
           << ", \"sparser_frac\": " << numStr(p.hw.sparserLineFrac)
           << ", \"qkv_buf_bytes\": " << p.hw.qkvBufBytes
           << ", \"s_buf_bytes\": " << p.hw.sBufferBytes
           << ", \"bandwidth_gbps\": " << numStr(p.hw.bandwidthGBps)
           << ", \"pipe_fifo_depth\": " << p.hw.pipeFifoDepth
           << ", \"pipe_stage_latency\": " << p.hw.pipeStageLatency
           << ", \"latency_s\": " << numStr(p.obj.latencySeconds)
           << ", \"energy_j\": " << numStr(p.obj.energyJoules)
           << ", \"area_mm2\": " << numStr(p.obj.areaMm2) << '}';
    }
    os << (points_.empty() ? "]" : "\n  ]") << "\n}\n";
}

void
ParetoFrontier::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeJson(os);
    if (!os)
        fatal("write to '", path, "' failed");
}

ParetoFrontier
ParetoFrontier::readJson(std::istream &is)
{
    const JsonValue doc = JsonParser(is).parse();
    VITCOD_ASSERT(doc.kind == JsonValue::Kind::Object,
                  "dse frontier parse error: not an object");
    VITCOD_ASSERT(doc.at("format").asString() == kFormat,
                  "dse frontier parse error: wrong format tag");
    VITCOD_ASSERT(doc.at("version").asU64() == kVersion,
                  "dse frontier parse error: unsupported version");

    // "algorithm" and "seed" are provenance only and ignored, so v1
    // files written by any search load.
    ParetoFrontier f;
    f.evaluated = doc.at("evaluated").asU64();
    for (const JsonValue &wv : doc.at("workloads").items) {
        WorkloadSpec w;
        w.model = wv.at("model").asString();
        w.sparsity = wv.at("sparsity").asDouble();
        w.useAe = wv.at("use_ae").asBool();
        w.endToEnd = wv.at("end_to_end").asBool();
        w.weight = wv.at("weight").asDouble();
        f.workloads.push_back(std::move(w));
    }
    for (const JsonValue &pv : doc.at("points").items) {
        DsePoint p;
        p.index = pv.at("index").asU64();
        p.hw.macLines = pv.at("mac_lines").asU64();
        p.hw.macsPerLine = pv.at("macs_per_line").asU64();
        p.hw.aeLines = pv.at("ae_lines").asU64();
        p.hw.sparserLineFrac = pv.at("sparser_frac").asDouble();
        p.hw.qkvBufBytes = pv.at("qkv_buf_bytes").asU64();
        p.hw.sBufferBytes = pv.at("s_buf_bytes").asU64();
        p.hw.bandwidthGBps = pv.at("bandwidth_gbps").asDouble();
        p.hw.pipeFifoDepth = pv.at("pipe_fifo_depth").asU64();
        p.hw.pipeStageLatency = pv.at("pipe_stage_latency").asU64();
        p.obj.latencySeconds = pv.at("latency_s").asDouble();
        p.obj.energyJoules = pv.at("energy_j").asDouble();
        p.obj.areaMm2 = pv.at("area_mm2").asDouble();
        // Points re-enter through insert() so the frontier invariant
        // (mutual non-dominance, sort order) holds for any input.
        f.insert(p);
    }
    return f;
}

ParetoFrontier
ParetoFrontier::readJsonFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '", path, "' for reading");
    return readJson(is);
}

void
ParetoFrontier::writeCsv(std::ostream &os) const
{
    os << "index,mac_lines,macs_per_line,ae_lines,sparser_frac,"
          "qkv_buf_bytes,s_buf_bytes,bandwidth_gbps,pipe_fifo_depth,"
          "pipe_stage_latency,latency_s,energy_j,area_mm2\n";
    for (const DsePoint &p : points_) {
        os << p.index << ',' << p.hw.macLines << ','
           << p.hw.macsPerLine << ',' << p.hw.aeLines << ','
           << numStr(p.hw.sparserLineFrac) << ',' << p.hw.qkvBufBytes
           << ',' << p.hw.sBufferBytes << ','
           << numStr(p.hw.bandwidthGBps) << ',' << p.hw.pipeFifoDepth
           << ',' << p.hw.pipeStageLatency << ','
           << numStr(p.obj.latencySeconds) << ','
           << numStr(p.obj.energyJoules) << ','
           << numStr(p.obj.areaMm2) << '\n';
    }
}

void
ParetoFrontier::writeCsvFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writeCsv(os);
    if (!os)
        fatal("write to '", path, "' failed");
}

} // namespace vitcod::dse
