type t =
  | Core
  | Cache_group
  | Numa_node
  | Package
  | System

type proximity =
  | Same_cpu
  | Same_core
  | Same_cache
  | Same_numa
  | Same_package
  | Same_system

let all = [ Core; Cache_group; Numa_node; Package; System ]

let to_string = function
  | Core -> "core"
  | Cache_group -> "cache-group"
  | Numa_node -> "numa-node"
  | Package -> "package"
  | System -> "system"

let abbrev = function
  | Core -> "core"
  | Cache_group -> "cache"
  | Numa_node -> "numa"
  | Package -> "pkg"
  | System -> "sys"

let rank = function
  | Core -> 0
  | Cache_group -> 1
  | Numa_node -> 2
  | Package -> 3
  | System -> 4

let compare a b = Int.compare (rank a) (rank b)

let all_prox =
  [ Same_cpu; Same_core; Same_cache; Same_numa; Same_package; Same_system ]

let nprox = 6

let prox_rank = function
  | Same_cpu -> 0
  | Same_core -> 1
  | Same_cache -> 2
  | Same_numa -> 3
  | Same_package -> 4
  | Same_system -> 5

let prox_of_rank = function
  | 0 -> Same_cpu
  | 1 -> Same_core
  | 2 -> Same_cache
  | 3 -> Same_numa
  | 4 -> Same_package
  | 5 -> Same_system
  | r -> invalid_arg (Printf.sprintf "Level.prox_of_rank: %d" r)

let proximity_of_level = function
  | Core -> Same_core
  | Cache_group -> Same_cache
  | Numa_node -> Same_numa
  | Package -> Same_package
  | System -> Same_system

let abbrev_of_prox = function
  | Same_cpu -> "cpu"
  | Same_core -> "core"
  | Same_cache -> "cache"
  | Same_numa -> "numa"
  | Same_package -> "pkg"
  | Same_system -> "sys"

let proximity_to_string = function
  | Same_cpu -> "same-cpu"
  | Same_core -> "same-core"
  | Same_cache -> "same-cache"
  | Same_numa -> "same-numa"
  | Same_package -> "same-package"
  | Same_system -> "same-system"
