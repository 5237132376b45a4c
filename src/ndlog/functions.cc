#include "src/ndlog/functions.h"

#include <algorithm>

namespace dpc {

void FunctionRegistry::Register(std::string name, NdlogFunction fn) {
  fns_[std::move(name)] = std::move(fn);
}

bool FunctionRegistry::Contains(const std::string& name) const {
  return fns_.count(name) > 0;
}

const NdlogFunction* FunctionRegistry::Find(const std::string& name) const {
  auto it = fns_.find(name);
  return it == fns_.end() ? nullptr : &it->second;
}

Result<Value> FunctionRegistry::Call(const std::string& name,
                                     const std::vector<Value>& args) const {
  const NdlogFunction* fn = Find(name);
  if (fn == nullptr) return Status::NotFound("unknown function " + name);
  return (*fn)(args);
}

bool IsSubDomain(const std::string& domain, const std::string& url) {
  // The root domain (empty or ".") contains every URL.
  if (domain.empty() || domain == ".") return true;
  if (url == domain) return true;
  // Suffix match on a label boundary: "hello.com" ⊂ "www.hello.com".
  if (url.size() > domain.size() &&
      url.compare(url.size() - domain.size(), domain.size(), domain) == 0 &&
      url[url.size() - domain.size() - 1] == '.') {
    return true;
  }
  return false;
}

namespace {

Status Arity(const char* fn, const std::vector<Value>& args, size_t want) {
  if (args.size() != want) {
    return Status::InvalidArgument(std::string(fn) + " expects " +
                                   std::to_string(want) + " arguments, got " +
                                   std::to_string(args.size()));
  }
  return Status::OK();
}

Status WantString(const char* fn, const Value& v) {
  if (!v.is_string()) {
    return Status::InvalidArgument(std::string(fn) +
                                   " expects string arguments");
  }
  return Status::OK();
}

}  // namespace

FunctionRegistry DefaultFunctions() {
  FunctionRegistry reg;

  reg.Register("f_isSubDomain",
               [](const std::vector<Value>& args) -> Result<Value> {
                 DPC_RETURN_NOT_OK(Arity("f_isSubDomain", args, 2));
                 DPC_RETURN_NOT_OK(WantString("f_isSubDomain", args[0]));
                 DPC_RETURN_NOT_OK(WantString("f_isSubDomain", args[1]));
                 return Value::Bool(
                     IsSubDomain(args[0].AsString(), args[1].AsString()));
               });

  reg.Register("f_size", [](const std::vector<Value>& args) -> Result<Value> {
    DPC_RETURN_NOT_OK(Arity("f_size", args, 1));
    DPC_RETURN_NOT_OK(WantString("f_size", args[0]));
    return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
  });

  reg.Register("f_concat",
               [](const std::vector<Value>& args) -> Result<Value> {
                 DPC_RETURN_NOT_OK(Arity("f_concat", args, 2));
                 DPC_RETURN_NOT_OK(WantString("f_concat", args[0]));
                 DPC_RETURN_NOT_OK(WantString("f_concat", args[1]));
                 return Value::Str(args[0].AsString() + args[1].AsString());
               });

  reg.Register("f_min", [](const std::vector<Value>& args) -> Result<Value> {
    DPC_RETURN_NOT_OK(Arity("f_min", args, 2));
    return std::min(args[0], args[1]);
  });

  reg.Register("f_max", [](const std::vector<Value>& args) -> Result<Value> {
    DPC_RETURN_NOT_OK(Arity("f_max", args, 2));
    return std::max(args[0], args[1]);
  });

  return reg;
}

}  // namespace dpc
