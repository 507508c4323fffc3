#include "obs/trace.hh"

#include <unordered_set>

#include "obs/json.hh"
#include "util/logging.hh"

namespace xisa::obs {

bool gTraceEnabled = false;

void
setTraceEnabled(bool on)
{
    gTraceEnabled = on;
}

const char *
intern(const std::string &s)
{
    static std::unordered_set<std::string> pool;
    return pool.insert(s).first->c_str();
}

TraceCursor &
traceCursor()
{
    static TraceCursor cursor;
    return cursor;
}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setCapacityPerTrack(size_t n)
{
    XISA_CHECK(n > 0, "tracer ring capacity must be positive");
    capacity_ = n;
}

void
Tracer::record(int track, const TraceEvent &e)
{
    Ring &r = rings_[track];
    if (r.head == r.ev.size() && r.ev.size() < capacity_) {
        // Still growing: append until the ring holds capacity_ events,
        // so a track costs what it records, not a full ring up front.
        r.ev.push_back(e);
        ++r.head;
        return;
    }
    r.head %= r.ev.size(); // a ring that just filled wraps to slot 0
    r.ev[r.head] = e;
    r.head = (r.head + 1) % r.ev.size();
    ++dropped_; // the event it overwrote
}

void
Tracer::begin(int track, const char *cat, const char *name,
              double tsSeconds)
{
    record(track, {tsSeconds, cat, name, 'B', 0});
}

void
Tracer::end(int track, double tsSeconds)
{
    record(track, {tsSeconds, nullptr, nullptr, 'E', 0});
}

void
Tracer::instant(int track, const char *cat, const char *name,
                double tsSeconds)
{
    record(track, {tsSeconds, cat, name, 'I', 0});
}

void
Tracer::counter(int track, const char *name, double value,
                double tsSeconds)
{
    record(track, {tsSeconds, nullptr, name, 'C', value});
}

void
Tracer::nameTrack(int track, const std::string &name)
{
    trackNames_[track] = name;
}

size_t
Tracer::size() const
{
    size_t n = 0;
    for (const auto &[track, r] : rings_)
        n += r.ev.size();
    return n;
}

void
Tracer::clear()
{
    rings_.clear();
    trackNames_.clear();
    dropped_ = 0;
}

std::vector<TraceEvent>
Tracer::repaired(const Ring &r) const
{
    std::vector<TraceEvent> out;
    out.reserve(r.ev.size());
    // Oldest-first order: the oldest event sits at `head` (which is
    // one past the end while the ring is still growing).
    double lastTs = 0;
    std::vector<size_t> open; ///< indices into `out` of unmatched B's
    for (size_t i = 0; i < r.ev.size(); ++i) {
        const TraceEvent &e = r.ev[(r.head + i) % r.ev.size()];
        lastTs = e.tsSeconds;
        if (e.ph == 'E') {
            if (open.empty())
                continue; // its B was overwritten by the ring
            // Give the E its B's labels so pairs are self-describing.
            TraceEvent fixed = e;
            fixed.cat = out[open.back()].cat;
            fixed.name = out[open.back()].name;
            open.pop_back();
            out.push_back(fixed);
            continue;
        }
        if (e.ph == 'B')
            open.push_back(out.size());
        out.push_back(e);
    }
    // Close spans still open at export (innermost first).
    while (!open.empty()) {
        TraceEvent e = out[open.back()];
        e.ph = 'E';
        e.tsSeconds = lastTs;
        open.pop_back();
        out.push_back(e);
    }
    return out;
}

void
Tracer::exportChromeTrace(std::ostream &os) const
{
    using Layout = JsonWriter::Layout;
    JsonWriter w(os, /*indent=*/0);
    w.beginObject(Layout::Compact)
        .key("traceEvents")
        .beginArray(Layout::Lines);
    for (const auto &[track, name] : trackNames_) {
        w.beginObject(Layout::Compact)
            .key("ph").string("M")
            .key("pid").number(0)
            .key("tid").number(track)
            .key("name").string("thread_name")
            .key("args").beginObject(Layout::Compact)
            .key("name").string(name)
            .end()
            .end();
    }
    for (const auto &[track, ring] : rings_) {
        for (const TraceEvent &e : repaired(ring)) {
            w.beginObject(Layout::Compact)
                .key("ph").string(std::string_view(&e.ph, 1))
                .key("pid").number(0)
                .key("tid").number(track)
                // Chrome expects microseconds.
                .key("ts").number(e.tsSeconds * 1e6, "%.3f");
            if (e.cat)
                w.key("cat").string(e.cat);
            if (e.name)
                w.key("name").string(e.name);
            if (e.ph == 'C')
                w.key("args").beginObject(Layout::Compact)
                    .key("value").number(e.value, "%g")
                    .end();
            w.end();
        }
    }
    w.end().key("displayTimeUnit").string("ms").end();
}

} // namespace xisa::obs
