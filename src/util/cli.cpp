#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace hdls::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
    options_[name] = Option{Kind::Flag, help, "0", "0", false};
    order_.push_back(name);
}

void ArgParser::add_int(const std::string& name, std::int64_t def, const std::string& help) {
    options_[name] = Option{Kind::Int, help, std::to_string(def), std::to_string(def), false};
    order_.push_back(name);
}

void ArgParser::add_double(const std::string& name, double def, const std::string& help) {
    std::ostringstream oss;
    oss << def;
    options_[name] = Option{Kind::Double, help, oss.str(), oss.str(), false};
    order_.push_back(name);
}

void ArgParser::add_string(const std::string& name, std::string def, const std::string& help) {
    options_[name] = Option{Kind::String, help, def, def, false};
    order_.push_back(name);
}

ArgParser::Option& ArgParser::find(const std::string& name, Kind kind) {
    auto it = options_.find(name);
    if (it == options_.end() || it->second.kind != kind) {
        throw std::invalid_argument("ArgParser: no such option --" + name);
    }
    return it->second;
}

const ArgParser::Option& ArgParser::find(const std::string& name, Kind kind) const {
    auto it = options_.find(name);
    if (it == options_.end() || it->second.kind != kind) {
        throw std::invalid_argument("ArgParser: no such option --" + name);
    }
    return it->second;
}

void ArgParser::set_value(const std::string& name, const std::string& value) {
    auto it = options_.find(name);
    if (it == options_.end()) {
        throw std::invalid_argument("ArgParser: unknown option --" + name);
    }
    Option& opt = it->second;
    switch (opt.kind) {
        case Kind::Int:
            if (!parse_integer<std::int64_t>(value)) {
                throw std::invalid_argument("ArgParser: --" + name + " expects an integer, got '" +
                                            value + "'");
            }
            break;
        case Kind::Double:
            if (!parse_number(value)) {
                throw std::invalid_argument("ArgParser: --" + name + " expects a number, got '" +
                                            value + "'");
            }
            break;
        case Kind::Flag:
        case Kind::String:
            break;
    }
    opt.value = value;
    opt.provided = true;
}

bool ArgParser::parse(int argc, const char* const* argv) {
    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
    for (int i = 1; i < argc; ++i) {
        args.emplace_back(argv[i]);
    }
    return parse(args);
}

bool ArgParser::parse(const std::vector<std::string>& args) {
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        if (a == "--help" || a == "-h") {
            std::cout << help_text();
            return false;
        }
        if (a.rfind("--", 0) != 0) {
            throw std::invalid_argument("ArgParser: unexpected positional argument '" + a + "'");
        }
        std::string name = a.substr(2);
        std::string value;
        bool has_value = false;
        if (const auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        auto it = options_.find(name);
        if (it == options_.end()) {
            throw std::invalid_argument("ArgParser: unknown option --" + name);
        }
        if (it->second.kind == Kind::Flag) {
            if (has_value) {
                throw std::invalid_argument("ArgParser: flag --" + name + " takes no value");
            }
            // Not `= "1"`: GCC 12 at -O3 flags that assignment with a false
            // -Wrestrict positive, fatal under -Werror.
            it->second.value.assign(1, '1');
            it->second.provided = true;
            continue;
        }
        if (!has_value) {
            if (i + 1 >= args.size()) {
                throw std::invalid_argument("ArgParser: option --" + name + " needs a value");
            }
            value = args[++i];
        }
        set_value(name, value);
    }
    return true;
}

bool ArgParser::get_flag(const std::string& name) const {
    return find(name, Kind::Flag).value == "1";
}

std::int64_t ArgParser::get_int(const std::string& name) const {
    return *parse_integer<std::int64_t>(find(name, Kind::Int).value);
}

double ArgParser::get_double(const std::string& name) const {
    return *parse_number(find(name, Kind::Double).value);
}

std::string ArgParser::get_string(const std::string& name) const {
    return find(name, Kind::String).value;
}

bool ArgParser::provided(const std::string& name) const {
    auto it = options_.find(name);
    if (it == options_.end()) {
        throw std::invalid_argument("ArgParser: no such option --" + name);
    }
    return it->second.provided;
}

std::string ArgParser::help_text() const {
    std::ostringstream oss;
    oss << program_ << " - " << description_ << "\n\nOptions:\n";
    for (const auto& name : order_) {
        const Option& opt = options_.at(name);
        oss << "  --" << name;
        switch (opt.kind) {
            case Kind::Flag:
                break;
            case Kind::Int:
                oss << " <int>";
                break;
            case Kind::Double:
                oss << " <num>";
                break;
            case Kind::String:
                oss << " <str>";
                break;
        }
        oss << "\n      " << opt.help;
        if (opt.kind != Kind::Flag) {
            oss << " (default: " << opt.def << ")";
        }
        oss << "\n";
    }
    oss << "  --help\n      print this help\n";
    return oss.str();
}

}  // namespace hdls::util
