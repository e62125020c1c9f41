#include "core/exec_target.hh"

#include "sim/logging.hh"

namespace papi::core {

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Prefill: return "prefill";
      case Phase::Fc: return "fc";
      case Phase::Attention: return "attention";
    }
    return "unknown";
}

const char *
targetKindName(TargetKind kind)
{
    switch (kind) {
      case TargetKind::Gpu: return "gpu";
      case TargetKind::FcPim: return "fc-pim";
      case TargetKind::AttnPim: return "attn-pim";
    }
    return "unknown";
}

bool
ExecTarget::supports(Phase phase) const
{
    switch (phase) {
      case Phase::Prefill: return static_cast<bool>(prefillCost);
      case Phase::Fc: return static_cast<bool>(fcCost);
      case Phase::Attention: return static_cast<bool>(attnCost);
    }
    return false;
}

TargetId
TargetRegistry::add(ExecTarget target)
{
    if (target.name.empty())
        sim::fatal("TargetRegistry: target name must be nonempty");
    if (find(target.name))
        sim::fatal("TargetRegistry: duplicate target '", target.name,
                   "'");
    _targets.push_back(std::move(target));
    return static_cast<TargetId>(_targets.size() - 1);
}

void
TargetRegistry::badId(TargetId id) const
{
    sim::fatal("TargetRegistry: bad target id ", id, " (have ",
               _targets.size(), " targets)");
}

std::optional<TargetId>
TargetRegistry::find(std::string_view name) const
{
    for (std::size_t i = 0; i < _targets.size(); ++i) {
        if (_targets[i].name == name)
            return static_cast<TargetId>(i);
    }
    return std::nullopt;
}

TargetId
TargetRegistry::require(std::string_view name) const
{
    if (auto id = find(name))
        return *id;
    std::string have;
    for (const auto &t : _targets) {
        if (!have.empty())
            have += ", ";
        have += t.name;
    }
    sim::fatal("TargetRegistry: no target named '", std::string(name),
               "' (registered: ", have, ")");
}

std::optional<TargetId>
TargetRegistry::firstOfKind(TargetKind kind) const
{
    for (std::size_t i = 0; i < _targets.size(); ++i) {
        if (_targets[i].kind == kind)
            return static_cast<TargetId>(i);
    }
    return std::nullopt;
}

std::vector<TargetId>
TargetRegistry::supporting(Phase phase) const
{
    std::vector<TargetId> out;
    for (std::size_t i = 0; i < _targets.size(); ++i) {
        if (_targets[i].supports(phase))
            out.push_back(static_cast<TargetId>(i));
    }
    return out;
}

} // namespace papi::core
