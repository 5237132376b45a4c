// Registry of user-defined functions callable from NDlog rule bodies
// (names carry the f_ prefix by RapidNet convention).
#ifndef DPC_NDLOG_FUNCTIONS_H_
#define DPC_NDLOG_FUNCTIONS_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/db/value.h"
#include "src/util/result.h"

namespace dpc {

using NdlogFunction =
    std::function<Result<Value>(const std::vector<Value>& args)>;

class FunctionRegistry {
 public:
  // Registers `fn` under `name`, replacing any previous registration.
  void Register(std::string name, NdlogFunction fn);

  bool Contains(const std::string& name) const;

  // The function registered under `name`, or null. The pointer stays valid
  // for the registry's lifetime (re-registering a name replaces the
  // function in place), so compiled rules resolve each call once.
  const NdlogFunction* Find(const std::string& name) const;

  Result<Value> Call(const std::string& name,
                     const std::vector<Value>& args) const;

 private:
  std::unordered_map<std::string, NdlogFunction> fns_;
};

// Registry pre-populated with the functions the paper's applications use:
//
//   f_isSubDomain(DM, URL) - true iff domain DM is a suffix-domain of URL's
//                            hostname (e.g. "com" and "hello.com" are
//                            sub-domains of "www.hello.com").
//   f_size(S)              - length of string S.
//   f_concat(A, B)         - string concatenation.
//   f_min(A, B), f_max(A, B)
FunctionRegistry DefaultFunctions();

// Exposed for direct testing: the f_isSubDomain predicate.
bool IsSubDomain(const std::string& domain, const std::string& url);

}  // namespace dpc

#endif  // DPC_NDLOG_FUNCTIONS_H_
