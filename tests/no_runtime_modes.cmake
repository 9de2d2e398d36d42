# Fails when a file under src/ or tools/ other than
# src/support/faultinject.cc (RODINIA_FAULTS) calls getenv: every
# other switch is a command-line option, and an environment variable
# would be a runtime mode no option shows.
#
#   cmake -DROOT=<source dir> -P tests/no_runtime_modes.cmake
cmake_minimum_required(VERSION 3.16)
if (NOT ROOT)
    message(FATAL_ERROR "pass -DROOT=<source dir>")
endif()
file(GLOB_RECURSE sources "${ROOT}/src/*" "${ROOT}/tools/*")
set(report "")
foreach(path IN LISTS sources)
    file(RELATIVE_PATH rel "${ROOT}" "${path}")
    if (rel STREQUAL "src/support/faultinject.cc")
        continue()
    endif()
    file(STRINGS "${path}" hits REGEX "getenv[ \t]*\\(")
    if (hits)
        string(APPEND report "\n  ${rel}")
    endif()
endforeach()
if (report)
    message(FATAL_ERROR
            "getenv outside src/support/faultinject.cc in:${report}")
endif()
