// Lightweight precondition checking.
//
// Library code throws efld::Error on contract violations; this keeps the
// simulator honest about format invariants (bus alignment, group sizes,
// address-window fits) without scattering asserts that vanish in release.
#pragma once

#include <stdexcept>
#include <string>

namespace efld {

class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Literal messages take this overload, so a passing check never builds a
// std::string (hot paths such as KV appends stay allocation-free).
inline void check(bool cond, const char* msg) {
    if (!cond) throw Error(msg);
}

inline void check(bool cond, const std::string& msg) {
    if (!cond) throw Error(msg);
}

}  // namespace efld
