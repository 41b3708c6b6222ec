// datacon-lint: standalone lint driver for DBPL programs.
//
//   datacon-lint [--json] [--werror] [--adorn] [--constraints] [--types]
//                [--codes] file.dbpl...
//
// Each file is parsed and run through the static-analysis pipeline
// (analysis/script_lint.h) without executing anything. Diagnostics print as
// `file:line:col: severity CODE: message`; with --json, one JSON object per
// file in the metrics conventions. --adorn additionally runs the adornment/
// relevance analysis (analysis/adorn.h) over every query expression and
// reports W220/W221/W222 where an adorned constructor application cannot be
// specialized. --constraints additionally audits declared integrity
// constraints against the script's own data flow: W231 when the facts the
// script inserts already refute a constraint, W232 when no statement of the
// script can ever change one of the constraint's input relations. --types
// additionally runs whole-program type inference (analysis/typecheck.h) and
// reports E130/E131/W240/W241/W242 for type conflicts, ill-typed
// operations, statically constant comparisons, unconstrained derived
// attributes, and union name mismatches. Exit
// status: 0 when no file has errors (under --werror, when no file has any
// diagnostic at all), 1 otherwise, 2 on usage or I/O failure.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/script_lint.h"
#include "common/build_info.h"
#include "common/string_util.h"
#include "lang/parser.h"

namespace {

int Usage() {
  std::cerr << "usage: datacon-lint [--json] [--werror] [--adorn] "
               "[--constraints] [--types] [--codes] file.dbpl...\n";
  return 2;
}

void PrintHelp() {
  std::cout
      << "usage: datacon-lint [options] file.dbpl...\n"
         "\n"
         "Statically analyzes DBPL programs without executing them.\n"
         "\n"
         "options:\n"
         "  --json     one JSON report object per file\n"
         "  --werror   any diagnostic (not just errors) fails the run\n"
         "  --adorn    run the adornment/relevance analysis and report\n"
         "             W220/W221/W222 for unspecializable adorned queries\n"
         "  --constraints\n"
         "             audit integrity constraints against the script's\n"
         "             data flow: W231 when the script's own facts refute a\n"
         "             constraint, W232 when no statement can ever change\n"
         "             one of its input relations\n"
         "  --types    run whole-program type inference and report\n"
         "             E130/E131 type errors and W240/W241/W242\n"
         "             type warnings\n"
         "  --codes    list every diagnostic code with its meaning and exit\n"
         "  --version  print version and build info and exit\n"
         "  --help     show this help and exit\n"
         "\n"
         "exit status:\n"
         "  0  no file has errors (with --werror: no diagnostics at all)\n"
         "  1  at least one file has errors (or, with --werror, any\n"
         "     diagnostic)\n"
         "  2  usage error or unreadable input file\n";
}

void PrintVersion() {
  std::cout << "datacon-lint " << datacon::kDataconVersion << "\n"
            << "build: " << datacon::BuildInfoString() << "\n"
            << "diagnostic codes: " << datacon::AllDiagnosticCodes().size()
            << "\n";
}

void PrintCodes() {
  for (std::string_view code : datacon::AllDiagnosticCodes()) {
    std::cout << code << "  " << datacon::DiagnosticCodeMeaning(code) << "\n";
  }
}

/// Lints one source file; parse failures become a single E100 report.
datacon::LintReport LintFile(const std::string& source,
                             const datacon::LintOptions& options) {
  datacon::Result<datacon::Script> script = datacon::ParseScript(source);
  datacon::LintReport report;
  if (!script.ok()) {
    report.Append(datacon::DiagnosticFromStatus(script.status()));
    return report;
  }
  return datacon::LintScript(script.value(), options);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool werror = false;
  datacon::LintOptions options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--adorn") {
      options.adorn = true;
    } else if (arg == "--constraints") {
      options.constraints = true;
    } else if (arg == "--types") {
      options.types = true;
    } else if (arg == "--codes") {
      PrintCodes();
      return 0;
    } else if (arg == "--version") {
      PrintVersion();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      PrintHelp();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "datacon-lint: unknown option '" << arg << "'\n";
      return Usage();
    } else {
      files.push_back(std::move(arg));
    }
  }
  if (files.empty()) return Usage();

  bool failed = false;
  bool first = true;
  if (json) std::cout << "{\"files\":[";
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "datacon-lint: cannot read '" << path << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    datacon::LintReport report = LintFile(buffer.str(), options);
    if (report.HasErrors() || (werror && !report.empty())) failed = true;

    if (json) {
      if (!first) std::cout << ",";
      first = false;
      // The path comes from the command line — quote it properly rather
      // than trusting it to contain no JSON metacharacters.
      std::cout << "{\"file\":" << datacon::JsonEscape(path)
                << ",\"report\":" << report.ToJson() << "}";
    } else {
      for (const datacon::Diagnostic& d : report.diagnostics) {
        std::cout << path << ":" << d.ToString() << "\n";
      }
    }
  }
  if (json) {
    std::cout << "],\"ok\":" << (failed ? "false" : "true") << "}\n";
  }
  return failed ? 1 : 0;
}
