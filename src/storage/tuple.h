#ifndef LDLOPT_STORAGE_TUPLE_H_
#define LDLOPT_STORAGE_TUPLE_H_

#include <string>
#include <vector>

#include "ast/term.h"

namespace ldl {

/// A row as terms: the boundary type in which rows enter and leave a
/// Relation (tests, answer printing, CanonicalAnswers). Relations store
/// rows as Values (DESIGN.md §25); nothing on the engine's path builds one.
using Tuple = std::vector<Term>;

/// "(a, 1, f(b))".
std::string TupleToString(const Tuple& t);

}  // namespace ldl

#endif  // LDLOPT_STORAGE_TUPLE_H_
