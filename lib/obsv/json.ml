include Mt_stats.Json
