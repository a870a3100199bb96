/**
 * @file
 * CobraScope stat registry: the unified view over every StatGroup in
 * one simulator tree (frontend, backend, BPU, per-component composer
 * attribution, caches, guard). Groups register under dotted
 * hierarchical names ("bpu.comp.TAGE"); the registry renders the
 * whole hierarchy as text or as a nested JSON document — the
 * machine-readable form behind `cobra_sim --stats-json`.
 *
 * The registry does not own the groups (the simulator tree does); it
 * owns the authoritative *name space*: duplicate group names are a
 * wiring bug and are rejected at registration time.
 */

#ifndef COBRA_SCOPE_STAT_REGISTRY_HPP
#define COBRA_SCOPE_STAT_REGISTRY_HPP

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"

namespace cobra {
class JsonWriter;
}

namespace cobra::scope {

class StatRegistry
{
  public:
    /** One registered group with its hierarchical path. */
    struct Node
    {
        std::string path;
        const StatGroup* group = nullptr;
    };

    /** Register under the group's own name. */
    void add(const StatGroup& group) { add(group.name(), group); }

    /**
     * Register under an explicit dotted path (e.g. "caches.l1i" for a
     * group whose local name is just "L1I"). Throws
     * std::invalid_argument on an empty path or a duplicate.
     */
    void add(std::string path, const StatGroup& group);

    const std::vector<Node>& nodes() const { return nodes_; }

    /** Group registered at @p path, or nullptr. */
    const StatGroup* find(std::string_view path) const;

    /** Value of "<group-path>.<counter>" (0 when absent). */
    std::uint64_t get(std::string_view path,
                      std::string_view counter) const;

    /** Text dump of every group, in registration order. */
    void dump(std::ostream& os) const;

    /**
     * Render the full hierarchy into the object @p w has open: dotted
     * paths become nested objects, each leaf group an object with
     * "counters" (name -> value) and, when present, "histograms"
     * (name -> {samples, mean, buckets}). The caller opens and closes
     * the enclosing object, so other members can sit beside the
     * groups (the warp point's synthetic "warp" group does).
     */
    void writeJson(JsonWriter& w) const;

  private:
    std::vector<Node> nodes_;
};

} // namespace cobra::scope

#endif // COBRA_SCOPE_STAT_REGISTRY_HPP
