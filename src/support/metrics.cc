#include "support/metrics.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/logging.hh"

namespace rodinia {
namespace support {
namespace metrics {

// File-local, like CancelScope's token: keeping the thread_local out
// of the header avoids cross-TU TLS-init-wrapper calls from inline
// code (which gcc+UBSan flag as a null store before first use).
namespace {
thread_local Registry *tlsSink = nullptr;
}

Registry *
currentSinkOverride()
{
    return tlsSink;
}

Registry &
sink()
{
    return tlsSink ? *tlsSink : Registry::global();
}

SinkScope::SinkScope(Registry *r) : prev(tlsSink)
{
    tlsSink = r;
}

SinkScope::~SinkScope()
{
    tlsSink = prev;
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

MetricSnapshot &
Registry::slot(std::string_view name, Kind kind, Stability st)
{
    auto [it, inserted] = metrics.try_emplace(std::string(name));
    MetricSnapshot &m = it->second;
    if (inserted) {
        m.kind = kind;
        m.stability = st;
    } else if (m.kind != kind || m.stability != st) {
        fatal("metric '", std::string(name),
              "' re-registered with a different kind or stability");
    }
    return m;
}

void
Registry::countAdd(std::string_view name, std::string_view label,
                   uint64_t delta, Stability st)
{
    std::lock_guard<std::mutex> lock(mu);
    slot(name, Kind::Counter, st).values[std::string(label)] += delta;
}

void
Registry::gaugeMax(std::string_view name, std::string_view label,
                   uint64_t value, Stability st)
{
    std::lock_guard<std::mutex> lock(mu);
    uint64_t &v = slot(name, Kind::Gauge, st).values[std::string(label)];
    v = std::max(v, value);
}

void
Registry::observe(std::string_view name, std::string_view label,
                  uint64_t value, Stability st)
{
    std::lock_guard<std::mutex> lock(mu);
    slot(name, Kind::Histogram, st)
        .histograms[std::string(label)]
        .observe(value);
}

Snapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    return Snapshot{metrics};
}

void
Registry::drainInto(Registry &dst)
{
    std::map<std::string, MetricSnapshot> taken;
    {
        std::lock_guard<std::mutex> lock(mu);
        taken.swap(metrics);
    }
    std::lock_guard<std::mutex> lock(dst.mu);
    for (const auto &[name, m] : taken) {
        MetricSnapshot &out = dst.slot(name, m.kind, m.stability);
        for (const auto &[label, v] : m.values) {
            uint64_t &d = out.values[label];
            d = m.kind == Kind::Gauge ? std::max(d, v) : d + v;
        }
        for (const auto &[label, h] : m.histograms)
            out.histograms[label].merge(h);
    }
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    metrics.clear();
}

const MetricSnapshot *
Snapshot::find(std::string_view name) const
{
    auto it = metrics.find(std::string(name));
    return it == metrics.end() ? nullptr : &it->second;
}

uint64_t
Snapshot::value(std::string_view name, std::string_view label) const
{
    const MetricSnapshot *m = find(name);
    if (!m)
        return 0;
    auto it = m->values.find(std::string(label));
    return it == m->values.end() ? 0 : it->second;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              unsigned(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Tree node for nesting metric names on '.'. */
struct Node
{
    std::map<std::string, Node> kids;
    const MetricSnapshot *leaf = nullptr;
};

void
insertMetric(Node &root, const std::string &name,
             const MetricSnapshot &m)
{
    Node *node = &root;
    size_t at = 0;
    while (at <= name.size()) {
        size_t dot = name.find('.', at);
        std::string seg = dot == std::string::npos
                              ? name.substr(at)
                              : name.substr(at, dot - at);
        node = &node->kids[seg];
        if (dot == std::string::npos)
            break;
        at = dot + 1;
    }
    if (node->leaf || !node->kids.empty())
        fatal("metric name '", name,
              "' collides with another metric's name path");
    node->leaf = &m;
}

void
renderHistogram(std::ostringstream &os, const HistogramData &h,
                const std::string &pad)
{
    os << "{\n";
    os << pad << "  \"count\": " << h.count << ",\n";
    os << pad << "  \"sum\": " << h.sum << ",\n";
    os << pad << "  \"min\": " << (h.count ? h.min : 0) << ",\n";
    os << pad << "  \"max\": " << h.max << ",\n";
    os << pad << "  \"buckets\": {";
    bool first = true;
    for (size_t i = 0; i < HistogramData::kBuckets; ++i) {
        if (!h.buckets[i])
            continue;
        os << (first ? "" : ",") << "\n"
           << pad << "    \""
           << HistogramData::bucketLowerBound(i)
           << "\": " << h.buckets[i];
        first = false;
    }
    if (!first)
        os << "\n" << pad << "  ";
    os << "}\n" << pad << "}";
}

void
renderLeaf(std::ostringstream &os, const MetricSnapshot &m,
           const std::string &pad)
{
    bool singleUnlabeled =
        m.kind != Kind::Histogram
            ? (m.values.size() == 1 && m.values.begin()->first == "")
            : (m.histograms.size() == 1 &&
               m.histograms.begin()->first == "");
    if (m.kind != Kind::Histogram) {
        if (singleUnlabeled) {
            os << m.values.begin()->second;
            return;
        }
        os << "{";
        bool first = true;
        for (const auto &[label, v] : m.values) {
            os << (first ? "" : ",") << "\n"
               << pad << "  \"" << jsonEscape(label) << "\": " << v;
            first = false;
        }
        os << "\n" << pad << "}";
        return;
    }
    if (singleUnlabeled) {
        renderHistogram(os, m.histograms.begin()->second, pad);
        return;
    }
    os << "{";
    bool first = true;
    for (const auto &[label, h] : m.histograms) {
        os << (first ? "" : ",") << "\n"
           << pad << "  \"" << jsonEscape(label) << "\": ";
        renderHistogram(os, h, pad + "  ");
        first = false;
    }
    os << "\n" << pad << "}";
}

void
renderNode(std::ostringstream &os, const Node &node,
           const std::string &pad)
{
    if (node.leaf) {
        renderLeaf(os, *node.leaf, pad);
        return;
    }
    os << "{";
    bool first = true;
    for (const auto &[seg, kid] : node.kids) {
        os << (first ? "" : ",") << "\n"
           << pad << "  \"" << jsonEscape(seg) << "\": ";
        renderNode(os, kid, pad + "  ");
        first = false;
    }
    if (!first)
        os << "\n" << pad;
    os << "}";
}

} // namespace

std::string
Snapshot::renderJson() const
{
    // Two independent trees so the Stable section is a prefix of
    // the document — the determinism tests truncate at "volatile".
    Node stable, vol;
    for (const auto &[name, m] : metrics)
        insertMetric(m.stability == Stability::Stable ? stable : vol,
                     name, m);
    std::ostringstream os;
    os << "{\n  \"schema\": 1,\n  \"stable\": ";
    renderNode(os, stable, "  ");
    os << ",\n  \"volatile\": ";
    renderNode(os, vol, "  ");
    os << "\n}\n";
    return os.str();
}

} // namespace metrics
} // namespace support
} // namespace rodinia
