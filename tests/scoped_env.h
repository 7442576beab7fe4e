// Scoped environment override for tests of env-read knobs: sets (or, with
// a null value, unsets) one variable and restores its previous state on
// destruction. setenv is not thread-safe, so a guard is established before
// the code under test starts threads that could read the environment.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace gqa::test {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    set(value);
  }
  ~ScopedEnv() { set(previous_ ? previous_->c_str() : nullptr); }

  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) {
    if (value == nullptr) {
      ::unsetenv(name_.c_str());
    } else {
      ::setenv(name_.c_str(), value, 1);
    }
  }

  std::string name_;
  std::optional<std::string> previous_;
};

}  // namespace gqa::test
