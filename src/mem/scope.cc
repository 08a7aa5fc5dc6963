#include "mem/scope.hh"

namespace drf
{

const char *
scopeName(Scope s)
{
    switch (s) {
      case Scope::None: return "none";
      case Scope::Cta: return "cta";
      case Scope::Gpu: return "gpu";
    }
    return "?";
}

const char *
scopeModeName(ScopeMode m)
{
    switch (m) {
      case ScopeMode::None: return "none";
      case ScopeMode::Scoped: return "scoped";
      case ScopeMode::Racy: return "racy";
    }
    return "?";
}

std::optional<ScopeMode>
parseScopeMode(const std::string &name)
{
    for (ScopeMode m :
         {ScopeMode::None, ScopeMode::Scoped, ScopeMode::Racy}) {
        if (name == scopeModeName(m))
            return m;
    }
    return std::nullopt;
}

} // namespace drf
