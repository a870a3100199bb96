#include "scope/stat_registry.hpp"

#include <ostream>
#include <stdexcept>

#include "common/json.hpp"

namespace cobra::scope {

void
StatRegistry::add(std::string path, const StatGroup& group)
{
    if (path.empty())
        throw std::invalid_argument("StatRegistry: empty group path");
    for (const Node& n : nodes_) {
        if (n.path == path) {
            throw std::invalid_argument(
                "StatRegistry: duplicate group '" + path + "'");
        }
    }
    nodes_.push_back(Node{std::move(path), &group});
}

const StatGroup*
StatRegistry::find(std::string_view path) const
{
    for (const Node& n : nodes_)
        if (n.path == path)
            return n.group;
    return nullptr;
}

std::uint64_t
StatRegistry::get(std::string_view path, std::string_view counter) const
{
    const StatGroup* g = find(path);
    return g == nullptr ? 0 : g->get(counter);
}

void
StatRegistry::dump(std::ostream& os) const
{
    for (const Node& n : nodes_) {
        for (const StatGroup::Entry& e : n.group->entries()) {
            if (e.counter != nullptr) {
                os << n.path << "." << e.name << " = "
                   << e.counter->value() << "\n";
            } else {
                os << n.path << "." << e.name << " = samples "
                   << e.histogram->samples() << ", mean "
                   << e.histogram->mean() << "\n";
            }
        }
    }
}

namespace {

/** Trie over dotted group paths, built at render time (cold path). */
struct Tree
{
    std::string seg;
    const StatGroup* group = nullptr;
    std::vector<Tree> kids;

    Tree&
    child(std::string_view s)
    {
        for (Tree& k : kids)
            if (k.seg == s)
                return k;
        kids.push_back(Tree{std::string(s), nullptr, {}});
        return kids.back();
    }
};

void
writeGroupBody(JsonWriter& w, const StatGroup& g)
{
    std::vector<const StatGroup::Entry*> counters, histograms;
    for (const StatGroup::Entry& e : g.entries())
        (e.counter != nullptr ? counters : histograms).push_back(&e);

    // An empty counter set renders as "{}".
    w.key("counters").object(counters.empty() ? JsonWriter::Inline
                                              : JsonWriter::Block);
    for (const StatGroup::Entry* e : counters)
        w.field(e->name, e->counter->value());
    w.end();
    if (histograms.empty())
        return;
    w.key("histograms").object();
    for (const StatGroup::Entry* e : histograms) {
        const Histogram& h = *e->histogram;
        w.key(e->name).object(JsonWriter::Inline);
        w.field("samples", h.samples()).field("mean", h.mean());
        w.key("buckets").array(JsonWriter::Inline);
        for (std::size_t b = 0; b < h.numBuckets(); ++b)
            w.value(h.bucket(b));
        w.end().end();
    }
    w.end();
}

/** The members of @p t's object: its group's stats, then its kids. */
void
writeTree(JsonWriter& w, const Tree& t)
{
    if (t.group != nullptr)
        writeGroupBody(w, *t.group);
    for (const Tree& k : t.kids) {
        w.key(k.seg).object();
        writeTree(w, k);
        w.end();
    }
}

} // namespace

void
StatRegistry::writeJson(JsonWriter& w) const
{
    Tree root;
    for (const Node& n : nodes_) {
        Tree* cur = &root;
        std::string_view rest = n.path;
        while (!rest.empty()) {
            const std::size_t dot = rest.find('.');
            const std::string_view seg = rest.substr(0, dot);
            cur = &cur->child(seg);
            rest = dot == std::string_view::npos
                       ? std::string_view{}
                       : rest.substr(dot + 1);
        }
        cur->group = n.group;
    }
    writeTree(w, root);
}

} // namespace cobra::scope
