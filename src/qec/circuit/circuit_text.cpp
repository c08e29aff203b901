/**
 * @file
 * Line-oriented text serialization for circuits.
 *
 * Format (one instruction per line, '#' comments):
 *
 *     QUBITS 25
 *     R 0 1 2
 *     DEPOLARIZE1(0.0001) 0 1 2
 *     CX 0 9 1 10
 *     M(0.0001) 9 10
 *     DETECTOR 0 1
 *     OBSERVABLE(0) 4 5 6
 *     TICK
 *
 * DETECTOR/OBSERVABLE targets are absolute measurement-record indices.
 */

#include "qec/circuit/circuit.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace qec
{

namespace
{

std::string
formatArg(double arg)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", arg);
    return buf;
}

/** Whole-token parse: no sign, no trailing characters. */
template <class T>
bool
parseNumber(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return !text.empty() && ec == std::errc() && ptr == end;
}

} // namespace

std::string
circuitToText(const Circuit &circuit)
{
    std::ostringstream out;
    out << "QUBITS " << circuit.numQubits() << "\n";
    for (const Instruction &inst : circuit.instructions()) {
        out << opName(inst.type);
        if (inst.type == OpType::Observable) {
            out << '(' << inst.id << ')';
        } else if (opIsNoise(inst.type) ||
                   (inst.type == OpType::M && inst.arg != 0.0)) {
            out << '(' << formatArg(inst.arg) << ')';
        }
        for (uint32_t t : inst.targets) {
            out << ' ' << t;
        }
        out << '\n';
    }
    return out.str();
}

Circuit
circuitFromText(const std::string &text)
{
    Circuit circuit;
    std::istringstream in(text);
    std::string line;
    size_t line_no = 0;
    bool saw_qubits = false;
    while (std::getline(in, line)) {
        ++line_no;
        const auto fail = [line_no](const std::string &message) {
            throw CircuitTextError(line_no, message);
        };
        // Strip comments and whitespace-only lines.
        const size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.resize(hash);
        }
        std::istringstream ls(line);
        std::string head;
        if (!(ls >> head)) {
            continue;
        }
        std::vector<uint32_t> targets;
        for (std::string token; ls >> token;) {
            uint32_t t = 0;
            if (!parseNumber(token, t)) {
                fail("target '" + token +
                     "' is not a non-negative integer");
            }
            targets.push_back(t);
        }

        if (head == "QUBITS") {
            if (saw_qubits) {
                fail("repeated QUBITS line");
            }
            if (targets.size() != 1) {
                fail("QUBITS takes exactly one qubit count");
            }
            circuit.setNumQubits(targets[0]);
            saw_qubits = true;
            continue;
        }
        if (!saw_qubits) {
            fail("circuit text must start with a QUBITS line");
        }

        // Split "NAME(arg)" into name and argument text.
        std::string name = head;
        std::string_view arg_text;
        const size_t paren = head.find('(');
        const bool has_arg = paren != std::string::npos;
        if (has_arg) {
            if (head.back() != ')') {
                fail("unterminated argument in '" + head + "'");
            }
            name = head.substr(0, paren);
            arg_text = std::string_view(head).substr(
                paren + 1, head.size() - paren - 2);
        }
        const auto probability = [&]() {
            double p = 0.0;
            if (has_arg && (!parseNumber(arg_text, p) ||
                            !(p >= 0.0 && p <= 1.0))) {
                fail(name + " probability must be a number in "
                            "[0, 1], got '" +
                     std::string(arg_text) + "'");
            }
            return p;
        };
        const auto no_arg = [&]() {
            if (has_arg) {
                fail(name + " takes no argument");
            }
        };
        const auto qubits =
            [&](bool pairs) -> const std::vector<uint32_t> & {
            if (pairs && targets.size() % 2 != 0) {
                fail(name + " needs an even number of targets");
            }
            for (uint32_t q : targets) {
                if (q >= circuit.numQubits()) {
                    fail("qubit " + std::to_string(q) +
                         " is out of range");
                }
            }
            return targets;
        };
        const auto records = [&]() -> const std::vector<uint32_t> & {
            for (uint32_t rec : targets) {
                if (rec >= circuit.numMeasurements()) {
                    fail("measurement " + std::to_string(rec) +
                         " has not happened yet");
                }
            }
            return targets;
        };

        if (name == "R") {
            no_arg();
            circuit.appendReset(qubits(false));
        } else if (name == "H") {
            no_arg();
            circuit.appendH(qubits(false));
        } else if (name == "CX") {
            no_arg();
            circuit.appendCx(qubits(true));
        } else if (name == "M") {
            circuit.appendMeasure(qubits(false), probability());
        } else if (name == "X_ERROR") {
            circuit.appendXError(qubits(false), probability());
        } else if (name == "Z_ERROR") {
            circuit.appendZError(qubits(false), probability());
        } else if (name == "DEPOLARIZE1") {
            circuit.appendDepolarize1(qubits(false), probability());
        } else if (name == "DEPOLARIZE2") {
            circuit.appendDepolarize2(qubits(true), probability());
        } else if (name == "TICK") {
            no_arg();
            if (!targets.empty()) {
                fail("TICK takes no targets");
            }
            circuit.appendTick();
        } else if (name == "DETECTOR") {
            no_arg();
            circuit.appendDetector(records());
        } else if (name == "OBSERVABLE") {
            // Observables are bits of a 64-bit mask downstream.
            uint32_t id = 0;
            if (has_arg && (!parseNumber(arg_text, id) || id >= 64)) {
                fail("observable index must be an integer in "
                     "[0, 64), got '" +
                     std::string(arg_text) + "'");
            }
            circuit.appendObservable(id, records());
        } else {
            fail("unknown instruction '" + name + "'");
        }
    }
    return circuit;
}

} // namespace qec
