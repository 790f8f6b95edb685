// The repository benchmark: the SEC stack over EBR. See ../README.md.
#include "cli.hpp"

int main(int argc, char** argv) {
    return perfbench::run_main<perfbench::SecEbrStack>(argc, argv);
}
