#include "util/args.hh"

#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace pvsim {

Args::Args(int argc, char **argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            options_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (arg.rfind("no-", 0) == 0) {
            options_[arg.substr(3)] = "false";
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
            options_[arg] = argv[++i];
        } else {
            options_[arg] = "true";
        }
    }
}

const std::string *
Args::find(const std::string &name) const
{
    queried_.insert(name);
    auto it = options_.find(name);
    return it == options_.end() ? nullptr : &it->second;
}

bool
Args::has(const std::string &name) const
{
    return find(name) != nullptr;
}

std::string
Args::getString(const std::string &name, const std::string &def) const
{
    const std::string *v = find(name);
    return v ? *v : def;
}

int64_t
Args::getInt(const std::string &name, int64_t def) const
{
    const std::string *v = find(name);
    if (!v)
        return def;
    char *end = nullptr;
    int64_t n = std::strtoll(v->c_str(), &end, 0);
    if (end == v->c_str())
        fatal("option --%s expects an integer, got '%s'", name.c_str(),
              v->c_str());
    return n;
}

uint64_t
Args::getUint(const std::string &name, uint64_t def) const
{
    const std::string *v = find(name);
    if (!v)
        return def;
    char *end = nullptr;
    uint64_t n = std::strtoull(v->c_str(), &end, 0);
    if (end == v->c_str())
        fatal("option --%s expects an unsigned integer, got '%s'",
              name.c_str(), v->c_str());
    return n;
}

double
Args::getDouble(const std::string &name, double def) const
{
    const std::string *v = find(name);
    if (!v)
        return def;
    char *end = nullptr;
    double n = std::strtod(v->c_str(), &end);
    if (end == v->c_str())
        fatal("option --%s expects a number, got '%s'", name.c_str(),
              v->c_str());
    return n;
}

bool
Args::getBool(const std::string &name, bool def) const
{
    const std::string *v = find(name);
    if (!v)
        return def;
    if (*v == "true" || *v == "1" || *v == "yes")
        return true;
    if (*v == "false" || *v == "0" || *v == "no")
        return false;
    fatal("option --%s expects a boolean, got '%s'", name.c_str(),
          v->c_str());
}

std::vector<std::string>
Args::getList(const std::string &name,
              const std::vector<std::string> &def) const
{
    const std::string *v = find(name);
    if (!v)
        return def;
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= v->size()) {
        auto comma = v->find(',', start);
        if (comma == std::string::npos) {
            out.push_back(v->substr(start));
            break;
        }
        out.push_back(v->substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

void
Args::rejectUnknown(int exit_code) const
{
    for (const auto &kv : options_) {
        if (queried_.count(kv.first))
            continue;
        std::fprintf(stderr, "%s: unknown option --%s\n",
                     program_.empty() ? "error" : program_.c_str(),
                     kv.first.c_str());
        std::exit(exit_code);
    }
}

} // namespace pvsim
